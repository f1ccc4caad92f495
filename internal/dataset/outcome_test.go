package dataset

import (
	"testing"

	"satcell/internal/channel"
)

func recsWithOutages(total, outage int) []channel.Record {
	recs := make([]channel.Record, total)
	for i := range recs {
		recs[i].Sample.DownMbps = 50
		recs[i].Sample.Outage = i < outage
	}
	return recs
}

func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		name   string
		total  int
		outage int
		want   Outcome
	}{
		{"no records", 0, 0, OutcomeFailed},
		{"clean window", 10, 0, OutcomeComplete},
		{"light outage", 10, 2, OutcomeComplete},
		{"quarter dark", 10, 3, OutcomeTruncated},
		{"mostly dark", 10, 8, OutcomeTruncated},
		{"fully dark", 10, 10, OutcomeFailed},
	}
	for _, c := range cases {
		if got := classifyOutcome(recsWithOutages(c.total, c.outage)); got != c.want {
			t.Errorf("%s: classifyOutcome = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeComplete.String() != "complete" ||
		OutcomeTruncated.String() != "truncated" ||
		OutcomeFailed.String() != "failed" {
		t.Fatal("outcome names wrong")
	}
	if Outcome(42).String() == "" {
		t.Fatal("unknown outcome must still print")
	}
}

// TestCampaignOutcomesDeterministic regenerates the same campaign and
// checks every test's outcome classification matches bit-for-bit, and
// that the campaign actually exercises the degradation path (satellite
// obstruction windows must yield some non-complete tests).
func TestCampaignOutcomesDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 11, Scale: 0.03})
	b := Generate(Config{Seed: 11, Scale: 0.03})
	if len(a.Tests) != len(b.Tests) {
		t.Fatalf("test counts differ: %d vs %d", len(a.Tests), len(b.Tests))
	}
	for i := range a.Tests {
		if a.Tests[i].Outcome != b.Tests[i].Outcome {
			t.Fatalf("test %d outcome differs: %v vs %v",
				i, a.Tests[i].Outcome, b.Tests[i].Outcome)
		}
	}

	counts := a.OutcomeCounts()
	if counts[OutcomeComplete] == 0 {
		t.Fatal("campaign has no complete tests")
	}
	if counts[OutcomeTruncated]+counts[OutcomeFailed] == 0 {
		t.Fatal("campaign outage model produced no degraded tests at all")
	}
	// Degraded tests are the exception, not the rule.
	if counts[OutcomeComplete] < len(a.Tests)/2 {
		t.Fatalf("only %d/%d tests complete — outage model out of calibration",
			counts[OutcomeComplete], len(a.Tests))
	}

	// Filtering on the outcome must partition the dataset exactly.
	sum := 0
	for _, o := range []Outcome{OutcomeComplete, OutcomeTruncated, OutcomeFailed} {
		sum += len(a.Filter(func(t *Test) bool { return t.Outcome == o }))
	}
	if sum != len(a.Tests) {
		t.Fatalf("outcomes partition %d of %d tests", sum, len(a.Tests))
	}
}

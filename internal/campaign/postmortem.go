package campaign

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/pprof"

	"satcell/internal/store"
)

// Automatic post-mortems: the moment the watchdog declares a stage
// stalled — or the streaming analyzer quarantines a shard — the process
// still holds the evidence (which goroutine is wedged on what, what the
// heap looks like, what every counter read). By the time an operator
// attaches, the stage has been cancelled and retried and the evidence
// is gone. So the supervisor captures the state into
// run/postmortem/<stage>-<attempt>/ *before* cancelling, and journals a
// pointer to the capture into TELEMETRY so the report renderer can line
// it up with the span that caused it; the run's timeline itself, retry
// causes included, is TELEMETRY's span tree.
//
// Capture layout:
//
//	goroutines.txt  full goroutine dump (pprof debug=2)
//	heap.pprof      heap profile (binary pprof proto)
//	metrics.json    final metrics registry snapshot
//	reason.txt      why the capture fired
//
// One capture per (stage, attempt): the first incident wins, later ones
// in the same attempt are recorded only as span outcomes. Capture
// failures are logged and counted, never escalated — a post-mortem is
// evidence, not a stage dependency.

// capturePostmortem snapshots process state for the current stage
// attempt. Returns the capture directory ("" when skipped because this
// attempt already captured one).
func (r *runner) capturePostmortem(st Stage, attempt int, reason string) string {
	if !r.pmGuard.CompareAndSwap(false, true) {
		return ""
	}
	dir := filepath.Join(r.cfg.Dir, PostmortemDirName, fmt.Sprintf("%s-%d", st, attempt))
	fsys := r.cfg.FS
	if fsys == nil {
		fsys = store.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		r.cfg.Log.Warnf("postmortem %s: %v", dir, err)
		return ""
	}
	files := map[string]func(io.Writer) error{
		"goroutines.txt": func(w io.Writer) error {
			return pprof.Lookup("goroutine").WriteTo(w, 2)
		},
		"heap.pprof": func(w io.Writer) error {
			return pprof.Lookup("heap").WriteTo(w, 0)
		},
		"metrics.json": func(w io.Writer) error {
			return r.cfg.Metrics.WriteJSON(w)
		},
		"reason.txt": func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "stage=%s attempt=%d reason=%s\n", st, attempt, reason)
			return err
		},
	}
	for name, write := range files {
		if err := store.WriteFileAtomicFS(fsys, filepath.Join(dir, name), write); err != nil {
			r.cfg.Log.Warnf("postmortem %s: %v", name, err)
		}
	}
	r.cfg.Metrics.Counter("campaign.postmortems").Inc()
	r.rec.RecordPostmortem(string(st), attempt, dir, reason)
	r.cfg.Log.Warnf("stage %s attempt %d: post-mortem captured in %s (%s)", st, attempt, dir, reason)
	return dir
}

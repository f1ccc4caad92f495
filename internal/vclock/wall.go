package vclock

import "time"

// Wall is the real-time Clock: every method delegates to the time
// package, so components built on it behave exactly as if they called
// the time package directly.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

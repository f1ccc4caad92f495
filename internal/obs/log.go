package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity.
type Level int32

// Log levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a SATCELL_LOG value to a Level (default info).
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// EnvLevel is the environment variable the default log level is read
// from: SATCELL_LOG=debug|info|warn|error.
const EnvLevel = "SATCELL_LOG"

// Logger is the shared leveled logger of the cmd/ tools. The zero
// value is unusable; construct with NewLogger. A nil logger is safe:
// every method is a no-op (Fatalf still exits).
type Logger struct {
	component string
	level     atomic.Int32
	mu        sync.Mutex
	w         io.Writer
	exit      func(int) // os.Exit, swappable in tests
}

// NewLogger creates a logger for one component (e.g. "mpshell") writing
// to stderr at the level named by SATCELL_LOG (default info).
func NewLogger(component string) *Logger {
	l := &Logger{component: component, w: os.Stderr, exit: os.Exit}
	l.level.Store(int32(ParseLevel(os.Getenv(EnvLevel))))
	return l
}

func (l *Logger) logf(lv Level, format string, args ...any) {
	if l == nil || lv < Level(l.level.Load()) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	line := fmt.Sprintf("%s %-5s %s: %s\n",
		time.Now().Format("15:04:05.000"), strings.ToUpper(lv.String()), l.component, msg)
	l.mu.Lock()
	io.WriteString(l.w, line)
	l.mu.Unlock()
}

// Infof logs at info level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }

// Fatalf logs at error level and exits with status 1.
func (l *Logger) Fatalf(format string, args ...any) {
	if l == nil {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(1)
	}
	l.logf(LevelError, format, args...)
	l.exit(1)
}

package obs

import "sync"

// Logger is a component-prefixed logger. It is silent until SetFunc
// routes its lines to a printf-style callback. Safe for concurrent use
// and safe on a nil receiver.
type Logger struct {
	component string

	mu sync.Mutex
	fn func(format string, args ...any)
}

// NewLogger creates a logger for a component.
func NewLogger(component string) *Logger {
	return &Logger{component: component}
}

// SetFunc routes this logger's lines to a printf-style callback; the
// SetLogf and Config.Logf surfaces call it. A nil callback silences
// the logger.
func (l *Logger) SetFunc(f func(format string, args ...any)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.fn = f
	l.mu.Unlock()
}

// Infof logs a line prefixed with the component.
func (l *Logger) Infof(format string, args ...any) { l.logf("", format, args...) }

// Warnf logs a line prefixed with the component and a "[warn]" tag.
func (l *Logger) Warnf(format string, args ...any) { l.logf("[warn] ", format, args...) }

func (l *Logger) logf(tag, format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	fn := l.fn
	l.mu.Unlock()
	if fn != nil {
		fn(l.component+": "+tag+format, args...)
	}
}

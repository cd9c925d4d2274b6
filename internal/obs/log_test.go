package obs

import (
	"fmt"
	"testing"
)

func TestLoggerLevelsAndPrefix(t *testing.T) {
	var lines []string
	l := NewLogger("daemon")
	l.SetFunc(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	l.Infof("peer %d connected", 2)
	l.Warnf("drop %d", 3)
	want := []string{"daemon: peer 2 connected", "daemon: [warn] drop 3"}
	if len(lines) != len(want) || lines[0] != want[0] || lines[1] != want[1] {
		t.Fatalf("lines = %q, want %q", lines, want)
	}
}

// TestSetFuncNilSilences pins the SetLogf(nil) contract: a logger
// whose callback was explicitly cleared stays silent.
func TestSetFuncNilSilences(t *testing.T) {
	var lines []string
	l := NewLogger("broker")
	l.SetFunc(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	l.Infof("kept")
	l.SetFunc(nil)
	l.Infof("dropped")
	l.Warnf("dropped")
	if len(lines) != 1 || lines[0] != "broker: kept" {
		t.Fatalf("lines = %q", lines)
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.SetFunc(func(string, ...any) { t.Fatal("nil logger called its callback") })
	l.Infof("nothing")
	l.Warnf("nothing")
}

package obs

import "log"

// Logger is a small leveled logging helper that counts every message it
// sees, so operational events (connection accepts, request errors) show up
// in the metrics exposition even when nothing is printed. A nil output
// logger silences printing but keeps counting — the replacement for ad-hoc
// `if logger != nil` guards around a nillable *log.Logger.
type Logger struct {
	out    *log.Logger
	infos  *Counter
	errors *Counter
}

// NewLogger builds a Logger for one subsystem. out may be nil (count only).
// When reg is non-nil the counters are registered as
// p4runpro_log_messages_total{subsystem,level}; otherwise they are
// standalone and only reachable through Infos/Errors.
func NewLogger(out *log.Logger, reg *Registry, subsystem string) *Logger {
	l := &Logger{out: out}
	if reg != nil {
		l.infos = reg.Counter("p4runpro_log_messages_total",
			"Log messages by subsystem and level.",
			L("subsystem", subsystem), L("level", "info"))
		l.errors = reg.Counter("p4runpro_log_messages_total",
			"Log messages by subsystem and level.",
			L("subsystem", subsystem), L("level", "error"))
	} else {
		l.infos = &Counter{}
		l.errors = &Counter{}
	}
	return l
}

// Infof counts and (when printing is enabled) logs an informational message.
func (l *Logger) Infof(format string, args ...any) {
	l.infos.Inc()
	if l.out != nil {
		l.out.Printf("info: "+format, args...)
	}
}

// Errorf counts and (when printing is enabled) logs an error message.
func (l *Logger) Errorf(format string, args ...any) {
	l.errors.Inc()
	if l.out != nil {
		l.out.Printf("error: "+format, args...)
	}
}

package flymon

import (
	"errors"
	"fmt"
	"time"
)

// ErrUnsupported reports a task outside FlyMon's measurement scope.
var ErrUnsupported = errors.New("flymon: task type unsupported")

// ErrNoCMU reports CMU exhaustion.
var ErrNoCMU = errors.New("flymon: no free CMU")

// Config sizes the CMU pool.
type Config struct {
	CMUGroups    int // composable measurement unit groups
	CMUsPerGroup int
	MemoryWords  int // per CMU
}

// DefaultConfig mirrors FlyMon's evaluated deployment (9 CMU groups of 3).
func DefaultConfig() Config {
	return Config{CMUGroups: 9, CMUsPerGroup: 3, MemoryWords: 65536}
}

// Task is an attached measurement task.
type Task struct {
	Name  string
	Type  TaskType
	CMUs  int
	Words int
}

// Switch is the simulated FlyMon deployment.
type Switch struct {
	cfg      Config
	freeCMUs int
	tasks    map[string]*Task
}

// New creates an empty FlyMon switch.
func New(cfg Config) *Switch {
	return &Switch{cfg: cfg, freeCMUs: cfg.CMUGroups * cfg.CMUsPerGroup, tasks: make(map[string]*Task)}
}

// cmusFor maps a task type to its CMU demand (rows/sketch components).
func cmusFor(t TaskType) (int, error) {
	switch t {
	case TaskCMS, TaskBF, TaskSuMax:
		return 2, nil
	case TaskHLL:
		return 1, nil
	}
	return 0, ErrUnsupported
}

// Attach installs a measurement task, returning its published
// reconfiguration delay. Non-measurement tasks are rejected — FlyMon's
// scope limitation.
func (s *Switch) Attach(name string, t TaskType, words int) (time.Duration, error) {
	need, err := cmusFor(t)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", err, t)
	}
	if _, dup := s.tasks[name]; dup {
		return 0, fmt.Errorf("flymon: task %q already attached", name)
	}
	if s.freeCMUs < need {
		return 0, ErrNoCMU
	}
	if words > s.cfg.MemoryWords {
		return 0, fmt.Errorf("flymon: %d words exceed CMU memory %d", words, s.cfg.MemoryWords)
	}
	s.freeCMUs -= need
	s.tasks[name] = &Task{Name: name, Type: t, CMUs: need, Words: words}
	return reconfigDelay[t], nil
}

// Detach removes a task.
func (s *Switch) Detach(name string) error {
	t, ok := s.tasks[name]
	if !ok {
		return fmt.Errorf("flymon: task %q not attached", name)
	}
	s.freeCMUs += t.CMUs
	delete(s.tasks, name)
	return nil
}

// Capacity returns total and free CMUs.
func (s *Switch) Capacity() (total, free int) {
	return s.cfg.CMUGroups * s.cfg.CMUsPerGroup, s.freeCMUs
}

// Tasks returns the number of attached tasks.
func (s *Switch) Tasks() int { return len(s.tasks) }

package telemetry

import (
	"sort"
	"sync"
)

// Health aggregates component-registered liveness checks for /healthz.
// Each serving component registers a named check function; the admin
// plane runs them all per probe and reports unhealthy when any fails.
// The zero value is not usable; call NewHealth.
type Health struct {
	mu     sync.Mutex
	checks map[string]func() error
}

// NewHealth creates an empty check set. With no checks registered the
// process reports healthy — liveness of the admin plane itself.
func NewHealth() *Health {
	return &Health{checks: make(map[string]func() error)}
}

// Register adds (or replaces) the named check. A check returns nil
// when the component is healthy; the error message is surfaced in the
// /healthz body otherwise. Checks must be safe for concurrent use and
// should be cheap: they run on every probe.
func (h *Health) Register(name string, check func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks[name] = check
}

// CheckResult is one check's outcome.
type CheckResult struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
}

// Check runs every registered check and returns the results sorted by
// name, plus whether all passed.
func (h *Health) Check() ([]CheckResult, bool) {
	h.mu.Lock()
	names := make([]string, 0, len(h.checks))
	for name := range h.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	checks := make([]func() error, len(names))
	for i, name := range names {
		checks[i] = h.checks[name]
	}
	h.mu.Unlock()

	results := make([]CheckResult, len(names))
	healthy := true
	for i, name := range names {
		r := CheckResult{Name: name, OK: true}
		if err := checks[i](); err != nil {
			r.OK = false
			r.Err = err.Error()
			healthy = false
		}
		results[i] = r
	}
	return results, healthy
}

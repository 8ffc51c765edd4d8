package core

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// SearchMode selects the branch-and-bound scheduling strategy of the
// MILP layer (milp.SearchMode, re-declared here so the wire form never
// imports solver internals).
type SearchMode int

const (
	// SearchAuto lets the solver pick: the size gate decides between
	// serial and work-stealing.
	SearchAuto SearchMode = iota
	// SearchSerial forces the single-threaded deterministic search even
	// when Parallelism > 1.
	SearchSerial
	// SearchSteal forces the work-stealing node pool, bypassing the
	// size gate.
	SearchSteal
)

func (m SearchMode) String() string {
	switch m {
	case SearchSerial:
		return "serial"
	case SearchSteal:
		return "steal"
	default:
		return "auto"
	}
}

// ParseSearchMode parses a search-mode name; "" means auto.
func ParseSearchMode(s string) (SearchMode, error) {
	switch s {
	case "", "auto":
		return SearchAuto, nil
	case "serial":
		return SearchSerial, nil
	case "steal":
		return SearchSteal, nil
	}
	return 0, fmt.Errorf("core: unknown search mode %q (want auto, serial or steal)", s)
}

// MarshalJSON encodes the search mode by name.
func (m SearchMode) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON accepts a name or the numeric enum value.
func (m *SearchMode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		if n, nerr := strconv.Atoi(string(data)); nerr == nil && n >= 0 && n <= int(SearchSteal) {
			*m = SearchMode(n)
			return nil
		}
		return fmt.Errorf("core: invalid search mode %s", data)
	}
	v, err := ParseSearchMode(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Toggle is a three-state switch: auto (defer to the solver's policy),
// on, or off. The zero value is auto, so omitted JSON fields inherit
// the default behavior.
type Toggle int

const (
	// ToggleAuto defers to the solver: root strengthening turns on for
	// parallel searches, off for serial ones.
	ToggleAuto Toggle = iota
	// ToggleOn forces the feature on.
	ToggleOn
	// ToggleOff forces the feature off.
	ToggleOff
)

func (t Toggle) String() string {
	switch t {
	case ToggleOn:
		return "on"
	case ToggleOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseToggle parses a toggle name; "" means auto.
func ParseToggle(s string) (Toggle, error) {
	switch s {
	case "", "auto":
		return ToggleAuto, nil
	case "on", "true", "1":
		return ToggleOn, nil
	case "off", "false", "0":
		return ToggleOff, nil
	}
	return 0, fmt.Errorf("core: unknown toggle %q (want auto, on or off)", s)
}

// MarshalJSON encodes the toggle by name.
func (t Toggle) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts a name ("auto", "on", "off") or the numeric
// enum value.
func (t *Toggle) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		if n, nerr := strconv.Atoi(string(data)); nerr == nil && n >= 0 && n <= int(ToggleOff) {
			*t = Toggle(n)
			return nil
		}
		return fmt.Errorf("core: invalid toggle %s", data)
	}
	v, err := ParseToggle(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// SearchOptions groups every branch-and-bound search knob, serialized
// as the "search" object of the wire form. The zero value is the
// paper's search: its branching rule, serial, no root strengthening.
type SearchOptions struct {
	// Parallelism sets the number of branch-and-bound workers
	// (milp.Options.Parallelism). 0 or 1 keeps the serial,
	// deterministic search; higher values share the tree across that
	// many goroutines over cloned LP solvers with a shared incumbent.
	// The optimum and its feasibility are identical either way — only
	// node/pivot counts and runtime change — so the service's canonical
	// cache key ignores it.
	Parallelism int `json:"parallelism,omitempty"`
	// Mode picks serial or work-stealing search; auto (the zero value)
	// lets the root-size gate (milp.DefaultParallelThreshold) decide,
	// and an explicit steal bypasses the gate.
	Mode SearchMode `json:"mode,omitempty"`
	// Branch selects the branching rule; the zero value is the paper's
	// rule, BranchPaper.
	Branch BranchRule `json:"branch,omitempty"`
	// Cuts controls root-node cut strengthening (Gomory + cover cuts).
	// Auto enables it for parallel searches.
	Cuts Toggle `json:"cuts,omitempty"`
	// Dive controls the root diving heuristic that seeds an early
	// incumbent. Auto enables it for parallel searches.
	Dive Toggle `json:"dive,omitempty"`
}

// Validate checks the search options for values no layer accepts.
func (s SearchOptions) Validate() error {
	if s.Parallelism < 0 {
		return fmt.Errorf("core: negative search parallelism %d", s.Parallelism)
	}
	if s.Mode < SearchAuto || s.Mode > SearchSteal {
		return fmt.Errorf("core: unknown search mode %d", s.Mode)
	}
	if s.Branch < BranchPaper || s.Branch > BranchMostFrac {
		return fmt.Errorf("core: unknown branch rule %d", s.Branch)
	}
	if s.Cuts < ToggleAuto || s.Cuts > ToggleOff {
		return fmt.Errorf("core: unknown cuts toggle %d", s.Cuts)
	}
	if s.Dive < ToggleAuto || s.Dive > ToggleOff {
		return fmt.Errorf("core: unknown dive toggle %d", s.Dive)
	}
	return nil
}

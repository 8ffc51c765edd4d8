package core

import (
	"encoding/json"
	"testing"
)

// TestSearchOptionsJSONRoundTrip: the wire form serializes enums by
// name and omits zero fields, and both names and numeric enum values
// decode.
func TestSearchOptionsJSONRoundTrip(t *testing.T) {
	opt := Options{N: 2, Search: &SearchOptions{
		Parallelism: 4, Mode: SearchSteal, Branch: BranchMostFrac,
		Cuts: ToggleOn, Dive: ToggleOff,
	}}
	b, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"n":2,"search":{"parallelism":4,"mode":"steal","branch":"most-fractional","cuts":"on","dive":"off"}}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back Options
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Search == nil || *back.Search != *opt.Search {
		t.Fatalf("round trip = %+v, want %+v", back.Search, opt.Search)
	}
	// names and numerics both decode
	var fromNames SearchOptions
	if err := json.Unmarshal([]byte(`{"mode":"serial","cuts":"off","dive":"auto"}`), &fromNames); err != nil {
		t.Fatal(err)
	}
	if fromNames.Mode != SearchSerial || fromNames.Cuts != ToggleOff || fromNames.Dive != ToggleAuto {
		t.Fatalf("name decode = %+v", fromNames)
	}
	var fromNums SearchOptions
	if err := json.Unmarshal([]byte(`{"mode":2,"cuts":1}`), &fromNums); err != nil {
		t.Fatal(err)
	}
	if fromNums.Mode != SearchSteal || fromNums.Cuts != ToggleOn {
		t.Fatalf("numeric decode = %+v", fromNums)
	}
	for _, bad := range []string{"warp", "portfolio"} {
		if _, err := ParseSearchMode(bad); err == nil {
			t.Fatalf("ParseSearchMode accepted %q", bad)
		}
	}
	if err := json.Unmarshal([]byte(`{"mode":3}`), &fromNums); err == nil {
		t.Fatal("numeric decode accepted a mode past steal")
	}
	if _, err := ParseToggle("maybe"); err == nil {
		t.Fatal("ParseToggle accepted garbage")
	}
}

// TestSearchOptionsValidate: Options.Validate must reject out-of-range
// search fields through the embedded group.
func TestSearchOptionsValidate(t *testing.T) {
	good := Options{Search: &SearchOptions{Parallelism: 2, Mode: SearchSteal}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid search options rejected: %v", err)
	}
	bad := []Options{
		{Search: &SearchOptions{Parallelism: -1}},
		{Search: &SearchOptions{Mode: SearchMode(99)}},
		{Search: &SearchOptions{Branch: BranchRule(7)}},
		{Search: &SearchOptions{Cuts: Toggle(5)}},
		{Search: &SearchOptions{Dive: Toggle(-2)}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid search options %+v passed Validate", i, *o.Search)
		}
	}
}

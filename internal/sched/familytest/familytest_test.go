package familytest

import (
	"reflect"
	"testing"

	"exegpt/internal/sched"
)

// TestFamilies runs the conformance suite for every registered family
// — the acceptance gate for adding a policy: register in sched,
// register its estimate in core, and this test picks it up by name.
func TestFamilies(t *testing.T) {
	fams := registeredFamilies()
	if len(fams) < 4 {
		t.Fatalf("expected at least 4 registered families, got %d", len(fams))
	}
	for _, f := range fams {
		t.Run(f.Name, func(t *testing.T) { Run(t, f) })
	}
}

// TestDefaultPoliciesExcludeExperimental pins the registry against the
// default search set that the CLI's "all", serve and the sweep each
// spell out (RRA, WAA-C, WAA-M): every registered family is one of
// those three, in canonical order, or the experimental DISAGG family,
// which the defaults leave out and which must be selected explicitly.
// A newly registered family fails here until it joins the default sets
// or is listed as opt-in.
func TestDefaultPoliciesExcludeExperimental(t *testing.T) {
	defaults := []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}
	optIn := map[sched.Policy]bool{sched.Disagg: true}
	var got []sched.Policy
	for _, f := range registeredFamilies() {
		if !optIn[f.Policy] {
			got = append(got, f.Policy)
		}
	}
	if !reflect.DeepEqual(got, defaults) {
		t.Fatalf("registered non-experimental families = %v, want the default set %v", got, defaults)
	}
	for p := range optIn {
		if _, ok := sched.FamilyOf(p); !ok {
			t.Fatalf("experimental policy %v not registered", p)
		}
	}
}

// registeredFamilies returns the families registered in sched, in
// Policy order. Policy values are small consecutive integers, so a scan
// of the first 64 finds every registration.
func registeredFamilies() []sched.Family {
	var fs []sched.Family
	for p := sched.Policy(0); p < 64; p++ {
		if f, ok := sched.FamilyOf(p); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

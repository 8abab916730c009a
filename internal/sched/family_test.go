package sched

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPolicyJSON pins the JSON encoding: a policy, alone or embedded
// in a Config, encodes as its family name.
func TestPolicyJSON(t *testing.T) {
	for _, f := range Families() {
		data, err := json.Marshal(f.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + f.Name + `"`; string(data) != want {
			t.Errorf("Marshal(%v) = %s, want %s", f.Policy, data, want)
		}
	}
	cfg := Config{Policy: WAAM, BE: 2, BD: 64, Bm: 2, TP: TPSpec{Degree: 1}}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"WAA-M"`) {
		t.Errorf("config JSON %s does not use the name encoding", data)
	}
}

// TestRegisterContracts pins the registration programming contract:
// duplicates and incomplete families panic.
func TestRegisterContracts(t *testing.T) {
	mustPanic := func(name string, f Family) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(f)
	}
	ok := func(c Config, n int) error { return nil }
	admit := func(tp TPSpec, n int) bool { return true }
	mustPanic("duplicate policy", Family{Policy: RRA, Name: "RRA-2", Validate: ok, AdmitTP: admit})
	mustPanic("duplicate name", Family{Policy: Policy(99), Name: "RRA", Validate: ok, AdmitTP: admit})
	mustPanic("incomplete", Family{Policy: Policy(99), Name: "HOLLOW"})
}

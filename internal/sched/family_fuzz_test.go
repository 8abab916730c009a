package sched

import (
	"strconv"
	"testing"
)

// FuzzParsePolicy: ParsePolicy and Policy.UnmarshalJSON never panic on
// arbitrary bytes, and every policy either accepts round-trips through
// MarshalJSON/UnmarshalJSON and through String/ParsePolicy unchanged.
func FuzzParsePolicy(f *testing.F) {
	for _, fam := range Families() {
		// Every family name in mixed case, bare and as a JSON string.
		mixed := []byte(fam.Name)
		for i := range mixed {
			if c := mixed[i]; i%2 == 0 && 'A' <= c && c <= 'Z' {
				mixed[i] = c + 'a' - 'A'
			}
		}
		f.Add(mixed)
		f.Add([]byte(strconv.Quote(string(mixed))))
	}
	// The legacy integer spellings, including the ones the core goldens
	// (testdata/golden_estimates.json, golden_disagg.json) store.
	for _, s := range []string{"0", "1", "2", "3", "9", "Policy(1)", `"Policy(1)"`, "-3", "Policy(-3)"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(how string, p Policy) {
			js, err := p.MarshalJSON()
			if err != nil {
				t.Fatalf("%s %q = %v; MarshalJSON: %v", how, data, p, err)
			}
			var back Policy
			if err := back.UnmarshalJSON(js); err != nil || back != p {
				t.Fatalf("%s %q = %v; JSON %s decodes to (%v, %v)", how, data, p, js, back, err)
			}
			if again, err := ParsePolicy(p.String()); err != nil || again != p {
				t.Fatalf("%s %q = %v; ParsePolicy(%q) = (%v, %v)", how, data, p, p.String(), again, err)
			}
		}
		if p, err := ParsePolicy(string(data)); err == nil {
			check("ParsePolicy", p)
		}
		var p Policy
		if err := p.UnmarshalJSON(data); err == nil {
			check("UnmarshalJSON", p)
		}
	})
}

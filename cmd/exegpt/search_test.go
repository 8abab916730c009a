package main

import (
	"math"
	"strconv"
	"testing"
)

// FuzzParseBounds: parseBounds never panics and returns either an error
// or a non-empty list of positive, non-NaN bounds. Every bound
// round-trips: an unconstrained one through fmtSeconds ("Inf"), a
// finite one through its shortest decimal spelling.
func FuzzParseBounds(f *testing.F) {
	for _, seed := range []string{
		"6,12,25,Inf", // README multi-bound search
		"0.5,1,Inf",   // -lbounds flag help
		"12", " inf , 0 ,-3", "+Inf,-Inf", "1e-400", "1e400", "NaN", "", ",", "6,,12",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		bounds, err := parseBounds(list)
		if err != nil {
			return
		}
		if len(bounds) == 0 {
			t.Fatalf("parseBounds(%q) returned no bounds and no error", list)
		}
		for _, b := range bounds {
			if !(b > 0) {
				t.Fatalf("parseBounds(%q) returned bound %v, want > 0 and not NaN", list, b)
			}
			spelled := strconv.FormatFloat(b, 'g', -1, 64)
			if math.IsInf(b, 1) {
				spelled = fmtSeconds(b)
			}
			back, err := parseBounds(spelled)
			if err != nil || len(back) != 1 || back[0] != b {
				t.Fatalf("bound %v spelled %q re-parsed to (%v, %v)", b, spelled, back, err)
			}
		}
	})
}

package main

import "fmt"

// sweepMode is the distribution mode of `exegpt sweep`, selected with
// -mode.
type sweepMode string

const (
	modeSingle   sweepMode = "single"
	modeDispatch sweepMode = "dispatch"
	modePull     sweepMode = "pull"
)

// resolveSweepMode parses the -mode flag; empty means single.
func resolveSweepMode(explicit string) (sweepMode, error) {
	switch m := sweepMode(explicit); m {
	case "":
		return modeSingle, nil
	case modeSingle, modeDispatch, modePull:
		return m, nil
	}
	return "", fmt.Errorf("unknown -mode %q (single, dispatch or pull)", explicit)
}

// sweepModeFlags carries the distribution flags that only some modes
// accept, for per-mode validation.
type sweepModeFlags struct {
	http     string
	connect  string
	workerID string
}

// validateSweepMode rejects flag combinations the selected mode cannot
// honor, so a typo fails loudly instead of being silently ignored.
func validateSweepMode(m sweepMode, f sweepModeFlags) error {
	// reject lists, per mode, the flags that mode has no use for.
	reject := func(pairs ...[2]string) error {
		for _, p := range pairs {
			if p[1] != "" {
				return fmt.Errorf("-mode %s does not use %s", m, p[0])
			}
		}
		return nil
	}
	switch m {
	case modeSingle:
		return reject([2]string{"-http", f.http},
			[2]string{"-connect", f.connect}, [2]string{"-worker-id", f.workerID})
	case modeDispatch:
		return reject([2]string{"-connect", f.connect})
	case modePull:
		if f.connect == "" {
			return fmt.Errorf("-mode pull attaches to a coordinator: give -connect URL")
		}
		return reject([2]string{"-http", f.http})
	}
	return nil
}

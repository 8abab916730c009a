package main

import (
	"strings"
	"testing"
)

func TestResolveSweepMode(t *testing.T) {
	cases := []struct {
		name     string
		explicit string
		want     sweepMode
		wantErr  string
	}{
		{name: "default single", want: modeSingle},
		{name: "explicit single", explicit: "single", want: modeSingle},
		{name: "explicit dispatch", explicit: "dispatch", want: modeDispatch},
		{name: "explicit pull", explicit: "pull", want: modePull},
		{name: "unknown mode", explicit: "serverless", wantErr: "unknown -mode"},
		{name: "removed static worker mode", explicit: "worker", wantErr: "unknown -mode"},
		{name: "removed static spawn mode", explicit: "spawn", wantErr: "unknown -mode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := resolveSweepMode(c.explicit)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("got (%q, %v), want error containing %q", got, err, c.wantErr)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("got (%q, %v), want %q", got, err, c.want)
			}
		})
	}
}

func TestValidateSweepMode(t *testing.T) {
	cases := []struct {
		name    string
		m       sweepMode
		f       sweepModeFlags
		wantErr string
	}{
		{name: "single plain", m: modeSingle},
		{name: "single with connect", m: modeSingle, f: sweepModeFlags{connect: "http://x"}, wantErr: "does not use -connect"},
		{name: "dispatch plain", m: modeDispatch},
		{name: "dispatch http", m: modeDispatch, f: sweepModeFlags{http: ":8080"}},
		{name: "dispatch with connect", m: modeDispatch, f: sweepModeFlags{connect: "http://x"}, wantErr: "does not use -connect"},
		{name: "pull connect", m: modePull, f: sweepModeFlags{connect: "http://x", workerID: "w1"}},
		{name: "pull neither", m: modePull, wantErr: "-connect"},
		{name: "pull with http", m: modePull, f: sweepModeFlags{connect: "http://x", http: ":8080"}, wantErr: "does not use -http"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateSweepMode(c.m, c.f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

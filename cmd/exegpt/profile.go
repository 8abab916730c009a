package main

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// profiler implements -cpuprofile and -memprofile for every subcommand
// that takes the common flags. The CPU profile starts while the flags
// are parsed, so it covers the whole subcommand; main calls stop once the
// subcommand returns, which ends the CPU profile and writes the heap
// profile. With neither flag given it does nothing.
type profiler struct {
	cpu     *os.File
	memPath string
}

// prof is the running subcommand's profiler.
var prof profiler

func (p *profiler) register(fs *flag.FlagSet) {
	fs.Func("cpuprofile", "write a CPU profile of the command to `file`", p.startCPU)
	fs.Func("memprofile", "write a heap profile to `file` when the command ends", func(path string) error {
		p.memPath = path
		return nil
	})
}

func (p *profiler) startCPU(path string) error {
	if p.cpu != nil {
		return errors.New("CPU profile already started")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

// stop ends the CPU profile and writes the heap profile, if requested.
func (p *profiler) stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if p.memPath != "" {
		runtime.GC() // report live objects as of the end of the command
		f, err := os.Create(p.memPath)
		if err == nil {
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		errs = append(errs, err)
		p.memPath = ""
	}
	return errors.Join(errs...)
}

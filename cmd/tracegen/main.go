// Command tracegen records benchmark address traces to disk in the
// repository's binary trace format and replays them through a memory
// system — the Shade-plus-trace-files half of the paper's methodology.
// Files ending in .gz are transparently compressed.
//
// Usage:
//
//	tracegen -workload mgrid -o mgrid.trace            # record, 10% time-sampled
//	tracegen -workload mgrid -o mgrid.trace.gz -full   # record unsampled, gzipped
//	tracegen -replay mgrid.trace                       # simulate from a trace file
//	tracegen -info mgrid.trace                         # count events
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args and dispatches; separated from main for testing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name   = fs.String("workload", "", "benchmark to record")
		out    = fs.String("o", "", "output trace file (with -workload); .gz compresses")
		replay = fs.String("replay", "", "trace file to simulate")
		info   = fs.String("info", "", "trace file to summarize")
		full   = fs.Bool("full", false, "disable the paper's 10k/90k time sampling")
		scale  = fs.Float64("scale", 1.0, "workload iteration scale in (0, 1]")
		sizeS  = fs.String("size", "small", "input size: small or large")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *name != "":
		if *out == "" {
			return fmt.Errorf("-workload requires -o")
		}
		return recordTrace(stdout, *name, *sizeS, *out, *scale, !*full)
	case *replay != "":
		return replayTrace(stdout, *replay)
	case *info != "":
		return infoTrace(stdout, *info)
	default:
		fs.Usage()
		return fmt.Errorf("one of -workload, -replay or -info is required")
	}
}

// openOut creates the output file, gzipped when the name ends in .gz.
// close finalizes both layers.
func openOut(path string) (w io.Writer, close func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f.Close, nil
	}
	gz := gzip.NewWriter(f)
	return gz, func() error {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// openIn opens a possibly-gzipped trace file.
func openIn(path string) (r io.Reader, close func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f.Close, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return gz, func() error {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// recordTrace writes a (possibly time-sampled) benchmark trace.
func recordTrace(stdout io.Writer, name, sizeS, path string, scale float64, sampled bool) error {
	size := workload.SizeSmall
	switch sizeS {
	case "small":
	case "large":
		size = workload.SizeLarge
	default:
		return fmt.Errorf("unknown size %q (small or large)", sizeS)
	}
	w, err := workload.New(name, size)
	if err != nil {
		return err
	}
	out, closeOut, err := openOut(path)
	if err != nil {
		return err
	}
	tw := trace.NewWriter(out)
	var sink mem.Sink = tw
	var sampler *trace.TimeSampler
	if sampled {
		sampler, err = trace.NewTimeSampler(tw, trace.DefaultOnRefs, trace.DefaultOffRefs)
		if err != nil {
			closeOut()
			return err
		}
		sink = sampler
	}
	if err := w.Run(sink, scale); err != nil {
		closeOut()
		return err
	}
	if err := tw.Flush(); err != nil {
		closeOut()
		return err
	}
	fmt.Fprintf(stdout, "recorded %d events to %s", tw.Events(), path)
	if sampler != nil {
		fmt.Fprintf(stdout, " (time-sampled: %d kept, %d dropped)", sampler.Passed(), sampler.Dropped())
	}
	fmt.Fprintln(stdout)
	return closeOut()
}

// replayTrace simulates the paper's default memory system from a file.
func replayTrace(stdout io.Writer, path string) error {
	in, closeIn, err := openIn(path)
	if err != nil {
		return err
	}
	defer closeIn()
	r, err := trace.NewReader(in)
	if err != nil {
		return err
	}
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	if err := r.Replay(sys); err != nil {
		return err
	}
	res := sys.Results()
	fmt.Fprintf(stdout, "stream hit rate: %.1f%%\n", res.StreamHitRate())
	fmt.Fprintf(stdout, "extra bandwidth: %.1f%%\n", res.ExtraBandwidth())
	fmt.Fprintf(stdout, "L1D miss rate:   %.2f%%\n", res.DataMissRate())
	fmt.Fprintf(stdout, "probes: %d  allocations: %d  prefetches: %d (wasted %d)\n",
		res.Streams.Probes, res.Streams.Allocations,
		res.Streams.PrefetchesIssued, res.Streams.PrefetchesWasted)
	return nil
}

// infoTrace counts the events in a trace file.
func infoTrace(stdout io.Writer, path string) error {
	in, closeIn, err := openIn(path)
	if err != nil {
		return err
	}
	defer closeIn()
	r, err := trace.NewReader(in)
	if err != nil {
		return err
	}
	var accs, instRecs, insts uint64
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if ev.Insts > 0 {
			instRecs++
			insts += ev.Insts
		} else {
			accs++
		}
	}
	fmt.Fprintf(stdout, "%s: %d accesses, %d instruction records (%d instructions)\n",
		path, accs, instRecs, insts)
	return nil
}

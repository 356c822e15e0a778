package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Buckets that are not a repository package.
const (
	bucketSched        = "runtime_sched"
	bucketGC           = "runtime_gc"
	bucketBench        = "bench"
	bucketUnattributed = "unattributed"
)

const internalPrefix = "ibmig/internal/"

// classify charges one stack (leaf first) to the nearest ibmig/internal/<pkg>
// frame. A stack with none is scheduler work if it runs schedule, park_m or
// findRunnable, GC work if it runs a background GC worker, the benchmark's
// own (the calibration pass) if its leaf frame is in package main, and
// unattributed otherwise. Go names a closure inlined into another package
// after the function it was inlined into, so such a closure is charged to
// that package.
func classify(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.park_m", "runtime.findRunnable":
			return bucketSched
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return bucketGC
		}
	}
	if strings.HasPrefix(frames[0], "main.") {
		return bucketBench
	}
	return bucketUnattributed
}

// parseTraces reads `go tool pprof -traces` output and returns each bucket's
// share of all samples, in percent.
func parseTraces(r io.Reader) (map[string]float64, error) {
	byBucket := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var frames []string
	inTraces := false
	flush := func() {
		if len(frames) > 0 {
			byBucket[classify(frames)] += value
			total += value
		}
		frames, value = frames[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		if len(frames) == 0 {
			// The first line of a trace carries its sample value.
			v, rest, _ := strings.Cut(text, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value = d
			text = strings.TrimSpace(rest)
		}
		frames = append(frames, strings.TrimSuffix(text, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for b, d := range byBucket {
		shares[b] = 100 * float64(d) / float64(total)
	}
	return shares, nil
}

// cpuShares runs `go tool pprof -traces` on a CPU profile and attributes it.
func cpuShares(profile string) (map[string]float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(&stdout)
}

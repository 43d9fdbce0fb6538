package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The sandbox this benchmark runs in shares its cores: the same instructions
// take 20–50 % longer for seconds or minutes at a time, in wall and in CPU
// time alike, and no steal time is reported for it. Ten runs of a fixed op
// list with ten seeds spread by up to 31 % as the clock shows (README.md),
// which is more than any bound a metric could hold. So every run times a fixed reference
// kernel about twice a second between cycles and reports its times in
// reference milliseconds: measured × referenceKernelMs / the run's median
// kernel time (calibrationOf). The kernel is allocation- and map-heavy like the wrangling
// core, touches nothing in the repository, and is timed by the CPU time of
// its own thread, which a busy server beside it does not change (measured:
// 36–39 ms alone, 34–39 ms beside two spinning threads or a loaded server,
// while its wall time went from 43 to 76 ms). A change to the program
// therefore cannot move the unit.

// referenceKernelMs is the kernel's median thread CPU time on the box the
// benchmark was frozen on, in its faster regime. It only fixes the unit.
const referenceKernelMs = 36.0

// calibrateEvery is the least time between two kernel runs of one client.
const calibrateEvery = 500 * time.Millisecond

var kernelSink int

type kernelRow struct {
	key, label string
	n          int
}

// referenceKernel is ~36 ms of fixed work: build 60 000 rows with fresh
// strings, index them in a map, sort them.
func referenceKernel() {
	index := make(map[string]*kernelRow)
	rows := make([]kernelRow, 0, 60000)
	x := uint64(7)
	for i := 0; i < 60000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := "key-" + strconv.FormatUint(x%100000, 10)
		rows = append(rows, kernelRow{key: key, label: key + "|" + strconv.Itoa(i), n: i})
		if old, ok := index[key]; ok {
			old.n += i
		} else {
			index[key] = &rows[len(rows)-1]
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
	kernelSink += len(index) + rows[0].n
}

// kernelLoop is the `kernel` subcommand: a child process that runs the
// kernel once for every byte it reads and answers with the thread CPU
// nanoseconds it took. The kernel lives in a process of its own so that its
// garbage collections see its own small, constant heap: run inside a library
// workload it spent its time marking the program's live heap, and its timings
// followed the program, not the machine.
func kernelLoop() error {
	runtime.LockOSThread() // so that the thread's CPU time is the kernel's
	in, out := bufio.NewReader(os.Stdin), bufio.NewWriter(os.Stdout)
	for {
		if _, err := in.ReadByte(); err != nil {
			return nil // the parent closed the pipe: done
		}
		cpu0 := threadCPU()
		referenceKernel()
		fmt.Fprintf(out, "%d\n", threadCPU()-cpu0)
		if err := out.Flush(); err != nil {
			return err
		}
	}
}

// kernelProc is the parent's handle on the kernel process; the clients of a
// service workload share it, one kernel run at a time.
type kernelProc struct {
	mu  sync.Mutex
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startKernel() (*kernelProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	k := &kernelProc{cmd: exec.Command(self, "kernel")}
	if k.in, err = k.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := k.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	k.out = bufio.NewReader(stdout)
	k.cmd.Stderr = os.Stderr
	k.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // as for the server
	if err := k.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference kernel: %w", err)
	}
	// Discard the first runs: the child's heap is still growing.
	for i := 0; i < 3; i++ {
		if _, err := k.run(); err != nil {
			k.stop()
			return nil, err
		}
	}
	return k, nil
}

// run has the child run the kernel once and returns the CPU ms it took.
func (k *kernelProc) run() (float64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, err := k.in.Write([]byte{1}); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	var cpu int64
	if _, err := fmt.Fscan(k.out, &cpu); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	return float64(cpu) / 1e6, nil
}

// stop closes the child's input, which ends it, and waits for it.
func (k *kernelProc) stop() {
	_ = k.in.Close() // EOF is the stop signal
	_ = k.cmd.Wait() // nothing to do about a kernel that died
}

// calibrator paces one client's kernel runs, between its cycles.
type calibrator struct {
	proc *kernelProc
	last time.Time
}

// tick runs the kernel if the last run is at least calibrateEvery old: once
// per calibrateEvery that has passed, at most four times, so a workload with
// long cycles still collects about two samples a second. The client waits
// for the kernel, so it runs between cycles and not beside them; the wait
// goes under its own root span, so the trace still covers the wall.
func (c *calibrator) tick(s *samples, tr *tracer) {
	runs := 1
	if !c.last.IsZero() {
		if runs = min(int(time.Since(c.last)/calibrateEvery), 4); runs == 0 {
			return
		}
	}
	span := tr.open(0, "calibrate", "benchmark.calibrate")
	for i := 0; i < runs; i++ {
		cpu, err := c.proc.run()
		if err != nil {
			break // the run's report will show too few kernel samples
		}
		s.observe("calibrate", cpu)
	}
	tr.close(span, nil)
	c.last = time.Now()
}

// calibrationOf turns a phase's kernel timings into the factors that scale
// its measured times to reference times. Each time is scaled by the kernel's
// time taken the same way: a median of stage times by the kernel's median, a
// total over the run by the kernel's mean. The slow spells are short and
// uneven, so the two differ, and over ten seeds scaling the totals by the
// median left them spreading by 9–12 % where the mean leaves 5–6 %.
func calibrationOf(s *samples) Calibration {
	xs := s.ms["calibrate"]
	cal := Calibration{KernelMs: median(xs), KernelMeanMs: mean(xs), ReferenceMs: referenceKernelMs,
		Factor: 1, TotalFactor: 1, N: len(xs)}
	if len(xs) > 0 {
		cal.Factor = referenceKernelMs / cal.KernelMs
		cal.TotalFactor = referenceKernelMs / cal.KernelMeanMs
	}
	return cal
}

// totalMetrics are the metrics computed from a total over the whole run.
var totalMetrics = map[string]bool{"ops_per_s": true, "cpu_ms_per_op": true, "process.server_cpu_ms_per_op": true}

// toReference rescales every time and rate in m; counts, sizes and ratios
// are left alone. Set-up runs before the first kernel sample and is scaled by
// the measured phase's factor all the same: the medians of two sets of ten
// runs then differed by 2–11 % where the unscaled ones differed by 6–18 %.
func toReference(m metricSet, cal Calibration) {
	for name, v := range m {
		factor := cal.Factor
		if totalMetrics[name] {
			factor = cal.TotalFactor
		}
		switch v.Unit {
		case "s", "ms", "us":
			v.Value *= factor
		case "1/s", "MB/s":
			v.Value /= factor
		}
		m[name] = v
	}
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudmc/internal/core"
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// goldenJSON holds each workload's exact seed-1 check-window Metrics,
// flattened (see flatten). Regenerate with -update-golden after a change
// that is meant to alter simulated results.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// captureLimit bounds the DRAM commands captured from the check window.
const captureLimit = 200_000

// checkResult carries what the checks measured for the layer probes.
type checkResult struct {
	// kernel and naive are the check window's host time in the event
	// kernel (carrying the command capture) and in the naive loop.
	kernel, naive time.Duration
	// cmds are the DRAM commands the kernel run issued, from cycle 0.
	cmds []tracedCmd
	// dramReplay is the host time of replaying cmds on fresh channels.
	dramReplay time.Duration
}

// checks runs the three output checks on the workload's fixed check
// window: the event kernel against the naive per-cycle loop at seed,
// a replay of the kernel run's DRAM commands on fresh channels, and the
// seed-1 window against the golden fingerprints.
func (r *runner) checks(def workloadDef, seed uint64, tr *tracer) checkResult {
	var c checkResult
	cfg := def.checkConfig(seed)
	var kernel *core.Metrics // the kernel run's, at seed
	r.op("check naive loop", func() error {
		capture := &commandCapture{}
		sp := tr.begin("check.kernel_window")
		m, d, err := checkRun(cfg, capture)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		kernel, c.kernel, c.cmds = &m, d, capture.cmds
		naive := cfg
		naive.FastForward = false
		sp = tr.begin("check.naive_window")
		nm, nd, err := checkRun(naive, nil)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		c.naive = nd
		if !reflect.DeepEqual(m, nm) {
			return fmt.Errorf("event-kernel metrics differ from the naive loop's: %s", diffFlat(flatten(nm), flatten(m)))
		}
		return nil
	})
	r.op("check dram replay", func() error {
		sp := tr.begin("layer.dram.issue")
		d, err := replayDRAM(cfg, c.cmds)
		tr.end(sp, len(c.cmds))
		c.dramReplay = d
		return err
	})
	r.op("check golden", func() error {
		seed1 := kernel
		if seed != 1 || seed1 == nil {
			sp := tr.begin("check.golden_window")
			m, _, err := checkRun(def.checkConfig(1), nil)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			seed1 = &m
		}
		r.res.Golden = fingerprint(flatten(*seed1))
		return checkGolden(def.name, *seed1)
	})
	return c
}

// checkRun builds cfg, warms it functionally, and runs its timed warmup
// and measure window, returning the Metrics and the host time of Run.
func checkRun(cfg core.Config, trace memctrl.CommandTrace) (core.Metrics, time.Duration, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Metrics{}, 0, err
	}
	if trace != nil {
		sys.AttachTrace(trace)
	}
	sys.FunctionalWarmup(cfg.WarmupInstrPerCore)
	t0 := time.Now()
	m := sys.Run()
	return m, time.Since(t0), nil
}

// checkGolden compares a workload's seed-1 check-window Metrics with
// the golden file, field by field.
func checkGolden(name string, m core.Metrics) error {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	want, ok := golden[name]
	if !ok {
		return fmt.Errorf("testdata/golden.json has no entry for %s; regenerate it with -update-golden", name)
	}
	if d := diffFlat(want, flatten(m)); d != "" {
		return fmt.Errorf("seed-1 metrics differ from testdata/golden.json: %s", d)
	}
	return nil
}

// goldenFile computes every workload's golden entry.
func goldenFile() (map[string]map[string]string, error) {
	out := map[string]map[string]string{}
	for _, w := range workloads {
		m, _, err := checkRun(w.checkConfig(1), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out[w.name] = flatten(m)
	}
	return out, nil
}

// tracedCmd is one DRAM command as the controller issued it.
type tracedCmd struct {
	at     uint64
	cmd    dram.Command
	tenant int
}

// commandCapture keeps the first captureLimit commands of a run.
type commandCapture struct {
	cmds []tracedCmd
}

// Command implements memctrl.CommandTrace.
func (c *commandCapture) Command(now uint64, cmd dram.Command, tenant int) {
	if len(c.cmds) < captureLimit {
		c.cmds = append(c.cmds, tracedCmd{at: now, cmd: cmd, tenant: tenant})
	}
}

// replayDRAM issues the captured commands, in order, on fresh channels
// of cfg's geometry and timing. Every command must be legal at its
// recorded cycle, and EarliestIssue must not place it later.
func replayDRAM(cfg core.Config, cmds []tracedCmd) (time.Duration, error) {
	if len(cmds) == 0 {
		return 0, errors.New("the check window issued no DRAM commands")
	}
	geo := cfg.Geometry.WithChannels(cfg.Channels)
	tim := cfg.BusTiming.ScaleFrom(cfg.ClockNum, cfg.ClockDen)
	chans := make([]*dram.Channel, geo.Channels)
	for i := range chans {
		chans[i] = dram.NewChannel(i, geo, tim)
	}
	t0 := time.Now()
	for i, c := range cmds {
		ch := chans[c.cmd.Loc.Channel]
		if !ch.CanIssue(c.at, c.cmd) || ch.EarliestIssue(c.cmd) > c.at {
			return time.Since(t0), fmt.Errorf("command %d (%s at cycle %d) is illegal on replay", i, c.cmd, c.at)
		}
		ch.Issue(c.at, c.cmd)
	}
	return time.Since(t0), nil
}

// flatten renders m field by field, per-core and per-tenant rows
// included, with floats as their IEEE-754 bits, so two Metrics compare
// exactly and a difference names its field.
func flatten(m core.Metrics) map[string]string {
	out := map[string]string{}
	flattenValue("", reflect.ValueOf(m), out)
	return out
}

func flattenValue(path string, v reflect.Value, out map[string]string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			flattenValue(name, v.Field(i), out)
		}
	case reflect.Slice:
		out[path+".len"] = strconv.Itoa(v.Len())
		for i := 0; i < v.Len(); i++ {
			flattenValue(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
		}
	case reflect.Float64:
		out[path] = fmt.Sprintf("0x%016x", math.Float64bits(v.Float()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[path] = strconv.FormatUint(v.Uint(), 10)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[path] = strconv.FormatInt(v.Int(), 10)
	case reflect.String:
		out[path] = strconv.Quote(v.String())
	default:
		panic(fmt.Sprintf("flatten: field %s has unsupported kind %s", path, v.Kind()))
	}
}

// diffFlat lists the first few fields where got differs from want, or
// returns "" when they are identical.
func diffFlat(want, got map[string]string) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if want[k] != got[k] {
			diffs = append(diffs, fmt.Sprintf("%s want %s got %s", k, readable(want[k]), readable(got[k])))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	n := len(diffs)
	if n > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("and %d more", n-5))
	}
	return strings.Join(diffs, "; ")
}

// readable decodes a flattened float for error messages.
func readable(v string) string {
	if v == "" {
		return "(missing)"
	}
	hexBits, isFloat := strings.CutPrefix(v, "0x")
	if bits, err := strconv.ParseUint(hexBits, 16, 64); isFloat && err == nil {
		return strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64)
	}
	return v
}

// fingerprint hashes a flattened Metrics.
func fingerprint(flat map[string]string) string {
	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, flat[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

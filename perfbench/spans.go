package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark's own code wraps. Each
// is also the key of a "self_s.<name>" per-layer metric.
const (
	spanPass      = "bench.pass"           // one pass of a simulation workload
	spanGen       = "workload.gen"         // topology generation
	spanNewSim    = "sim.new"              // udwn.Network.NewSim
	spanRun       = "sim.run"              // the Step + completion-predicate loop
	spanStep      = "sim.step"             // one sim.Sim.Step call
	spanJob       = "bench.job"            // one daemon job, due → terminal
	spanSubmit    = "jobs.submit"          // jobs.Server.Submit
	spanQueue     = "jobs.queue"           // accepted → RUNNING
	spanJobRun    = "jobs.run"             // RUNNING → terminal
	spanCell      = "experiment.cell"      // gap between two grid progress events
	spanReference = "experiment.reference" // direct experiment run checking a job
)

var spanNames = []string{
	spanPass, spanGen, spanNewSim, spanRun, spanStep,
	spanJob, spanSubmit, spanQueue, spanJobRun, spanCell, spanReference,
}

// span is one timed layer call. Parent is the id of the enclosing span (0
// for a root); Req groups the spans of one request: a pass index or a job id.
type span struct {
	Name       string
	ID, Parent int64
	Req        string
	Start, End time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id, for use as a parent.
func (t *tracer) add(name, req string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	return id
}

// reserve allocates the id of a span whose end is not known yet, so that
// children can name it as their parent; finish fills it in.
func (t *tracer) reserve(name, req string, parent int64, start time.Time) int64 {
	return t.add(name, req, parent, start, start)
}

func (t *tracer) finish(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(cur) {
			start = cur
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}

// write stores every span as gzip-compressed CSV, times in nanoseconds
// since the first span started, after a header line.
func (t *tracer) write(path, header string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	var epoch time.Time
	if len(t.spans) > 0 {
		epoch = t.spans[0].Start
	}
	fmt.Fprintf(w, "# %s\nname,id,parent,req,start_ns,end_ns\n", header)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d\n", s.Name, s.ID, s.Parent, s.Req,
			s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event constants: one process per time domain so Perfetto
// renders the wall-clock and guest-cycle timelines as separate track
// groups, with one thread (row) per record track within each.
const (
	chromePIDWall   = 1
	chromePIDCycles = 2
)

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid,omitempty"`
	Args map[string]any `json:"args"`
}

// chromeThreads assigns one domain process's rows (thread IDs) to record
// tracks in first-seen order, announcing each row with a thread_name
// metadata record.
type chromeThreads struct {
	pid int
	ids map[string]int
}

func (c *chromeThreads) id(out *[]any, track string) int {
	if c.ids == nil {
		c.ids = make(map[string]int)
	}
	id, ok := c.ids[track]
	if !ok {
		id = len(c.ids) + 1
		c.ids[track] = id
		*out = append(*out, chromeMeta{Name: "thread_name", Ph: "M",
			PID: c.pid, TID: id, Args: map[string]any{"name": track}})
	}
	return id
}

// WriteChromeTrace writes the records of one or more trace streams as a
// Chrome trace-event JSON document loadable in ui.perfetto.dev or
// chrome://tracing. Callers pass one stream; the variadic form keeps
// perfbench's (records, nil) call compiling.
//
// Spans appear twice: once in the wall-clock process (ts/dur in
// microseconds of host time) and once in the guest-cycle process (cycles
// mapped 1:1 onto trace microseconds — absolute numbers are guest cycles,
// not time); spans lacking cycle data are omitted from the cycle process.
// Point events become instants on the wall-clock timeline at their
// recorded start. Args carry the modeled cost and detail so per-phase
// cost is inspectable in the UI.
func WriteChromeTrace(w io.Writer, streams ...[]Record) error {
	out := []any{
		chromeMeta{Name: "process_name", Ph: "M", PID: chromePIDWall,
			Args: map[string]any{"name": "wall clock (us)"}},
		chromeMeta{Name: "process_name", Ph: "M", PID: chromePIDCycles,
			Args: map[string]any{"name": "guest cycles"}},
	}
	wall := &chromeThreads{pid: chromePIDWall}
	cyc := &chromeThreads{pid: chromePIDCycles}
	for _, recs := range streams {
		for _, r := range recs {
			track := r.Track
			if track == "" {
				track = r.Kind + "s"
			}
			args := map[string]any{"id": r.ID}
			if r.ParentID != 0 {
				args["parent"] = r.ParentID
			}
			if r.ISA != "" {
				args["isa"] = r.ISA
			}
			if r.Addr != 0 {
				args["addr"] = fmt.Sprintf("%#x", r.Addr)
			}
			if r.CostUS != 0 {
				args["cost_us"] = r.CostUS
			}
			if r.Detail != "" {
				args["detail"] = r.Detail
			}
			tid := wall.id(&out, track)
			if r.Kind != KindSpan {
				out = append(out, chromeEvent{Name: r.Name, Ph: "i",
					TS: float64(r.StartNS) / 1e3, PID: chromePIDWall, TID: tid, S: "t",
					Args: args})
				continue
			}
			out = append(out, chromeEvent{Name: r.Name, Ph: "X",
				TS: float64(r.StartNS) / 1e3, Dur: float64(r.DurNS) / 1e3,
				PID: chromePIDWall, TID: tid, Args: args})
			if r.DurCycles > 0 {
				tid := cyc.id(&out, track)
				out = append(out, chromeEvent{Name: r.Name, Ph: "X",
					TS: r.StartCycles, Dur: r.DurCycles,
					PID: chromePIDCycles, TID: tid, Args: args})
			}
		}
	}
	doc := struct {
		TraceEvents []any  `json:"traceEvents"`
		Unit        string `json:"displayTimeUnit"`
	}{TraceEvents: out, Unit: "ms"}
	return json.NewEncoder(w).Encode(doc)
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hipstr/internal/telemetry"
)

func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTraceEmpty(t *testing.T) {
	recs, err := readTrace(writeTrace(t, ""))
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records from empty trace", len(recs))
	}
	// Blank lines only are equally empty.
	recs, err = readTrace(writeTrace(t, "\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank-line trace: %d records, %v", len(recs), err)
	}
}

func TestReadTraceTruncatedTail(t *testing.T) {
	// A trace cut mid-write: the final line is half a record. It must be
	// dropped with the parsed prefix preserved, not fail the run.
	recs, err := readTrace(writeTrace(t,
		`{"kind":"event","id":1,"name":"translate","isa":"x86","start_ns":5,"dur_ns":0,"cost_us":3}`+"\n"+
			`{"kind":"event","id":2,"name":"rat-miss","isa":"arm","start_ns":9,"dur_ns":0}`+"\n"+
			`{"kind":"event","id":3,"name":"mig`))
	if err != nil {
		t.Fatalf("truncated tail must not be fatal: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[1].ID != 2 {
		t.Errorf("last kept record id = %d, want 2", recs[1].ID)
	}
}

func TestReadTraceMalformedMidStream(t *testing.T) {
	// Garbage followed by more data is corruption, not truncation.
	_, err := readTrace(writeTrace(t,
		`{"kind":"event","id":1,"name":"translate"}`+"\n"+
			"not json\n"+
			`{"kind":"event","id":2,"name":"translate"}`))
	if err == nil {
		t.Fatal("mid-stream garbage must be fatal")
	}
}

func TestReadTraceMixedSpans(t *testing.T) {
	// Span and point records share one schema and one stream; both kinds
	// come back in stream order.
	recs, err := readTrace(writeTrace(t,
		`{"kind":"event","id":1,"name":"translate","isa":"x86","start_ns":5,"dur_ns":0,"cost_us":3}`+"\n"+
			`{"kind":"span","id":2,"name":"migrate","track":"migrate","start_ns":10,"dur_ns":900,"cost_us":620}`+"\n"+
			`{"kind":"span","id":3,"parent":2,"name":"resume","track":"migrate","start_ns":700,"dur_ns":200}`+"\n"+
			`{"kind":"event","id":4,"name":"rat-miss","isa":"arm","start_ns":950,"dur_ns":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
	}
	if fmt.Sprint(kinds) != "[event span span event]" {
		t.Fatalf("kinds = %v, want [event span span event]", kinds)
	}
	if recs[0].Name != telemetry.EvTranslate || recs[0].CostUS != 3 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Name != "migrate" || recs[1].CostUS != 620 {
		t.Errorf("record 1 = %+v", recs[1])
	}
	if recs[2].ParentID != 2 || recs[2].DurNS != 200 {
		t.Errorf("record 2 = %+v", recs[2])
	}
}

func TestAssignPhasesEmpty(t *testing.T) {
	if labels := assignPhases(nil); len(labels) != 0 {
		t.Fatalf("assignPhases(nil) = %v", labels)
	}
	labels := assignPhases([]telemetry.Record{{Kind: telemetry.KindEvent, Name: telemetry.EvTranslate}})
	if len(labels) != 1 || labels[0] != "(run)" {
		t.Fatalf("phase-less trace labels = %v", labels)
	}
}

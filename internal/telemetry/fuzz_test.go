package telemetry

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL drives the one JSONL trace loader (tracestat and the
// tests read traces through it) with arbitrary bytes. The committed seeds
// are cut from a real hipstr-run -trace-out: whole lines, a migration's
// span tree, and a tail cut mid-record. It checks that
//
//   - no input panics;
//   - a non-zero cut only ever names the last non-blank line, since an
//     unparsable line with data after it is corruption, not a cut;
//   - whatever parsed, written back through JSONLSink, reads back equal.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\r\n{\"kind\":\"event\",\"id\":1,\"name\":\"kill\"}\r\n{\"kind\""))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, cut, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cut != 0 {
			// bufio.ScanLines strips one trailing CR, so a line of just
			// "\r" is blank to the reader.
			last := 0
			for i, l := range bytes.Split(data, []byte("\n")) {
				if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
					last = i + 1
				}
			}
			if cut != last {
				t.Fatalf("cut = line %d, but the last non-blank line is %d", cut, last)
			}
		}

		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		for _, r := range recs {
			sink.Emit(r)
		}
		if sink.Err() != nil {
			t.Fatalf("write back: %v", sink.Err())
		}
		back, cut, err := ReadJSONL(&buf)
		if err != nil || cut != 0 {
			t.Fatalf("read back: cut=%d err=%v", cut, err)
		}
		if len(back) != len(recs) {
			t.Fatalf("read back %d records, wrote %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d changed: %+v -> %+v", i, recs[i], back[i])
			}
		}
	})
}

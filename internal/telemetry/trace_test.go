package telemetry

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := StartSpan("query")
	dec := root.StartChild("decompose")
	dec.SetInt("chunks", 3)
	dec.End()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild("chunk_subquery")
			c.SetInt("chunk", int64(i))
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()

	if len(root.Children) != 5 {
		t.Fatalf("children = %d, want 5", len(root.Children))
	}
	if root.Dur <= 0 {
		t.Error("root duration not set")
	}
	if len(dec.Attrs) != 1 || dec.Attrs[0] != (Attr{Key: "chunks", Value: 3}) {
		t.Errorf("attrs = %+v, want chunks=3", dec.Attrs)
	}
	if root.Find("decompose") != dec {
		t.Error("Find failed")
	}
	if root.Find("nope") != nil {
		t.Error("Find invented a span")
	}

	// End is idempotent: the first duration sticks.
	d := dec.Dur
	time.Sleep(time.Millisecond)
	dec.End()
	if dec.Dur != d {
		t.Error("second End changed duration")
	}
}

func TestQueryTraceFormatAndGob(t *testing.T) {
	root := StartSpan("query")
	dec := root.StartChild("decompose")
	dec.SetInt("mem_subqueries", 1)
	dec.End()
	disp := root.StartChild("chunk_dispatch")
	sq := disp.StartChild("chunk_subquery")
	sq.SetInt("chunk", 7)
	sq.SetStr("kind", "leaf")
	sq.End()
	disp.End()
	root.End()
	tr := &QueryTrace{QueryID: 42, Policy: "lada", Root: root}

	out := tr.Format()
	for _, want := range []string{
		"trace query=42 policy=lada",
		"query ",
		"├─ decompose", "mem_subqueries=1",
		"└─ chunk_dispatch",
		"   └─ chunk_subquery", "chunk=7", "kind=leaf",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q in:\n%s", want, out)
		}
	}

	// Round-trip over gob, as the trace RPC verb does.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	var got QueryTrace
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.QueryID != 42 || got.Policy != "lada" {
		t.Errorf("decoded header %+v", got)
	}
	if got.Root == nil || len(got.Root.Children) != 2 {
		t.Fatalf("decoded tree lost children")
	}
	if got.Format() != out {
		t.Error("decoded trace formats differently")
	}

	var nilTrace *QueryTrace
	if !strings.Contains(nilTrace.Format(), "no trace") {
		t.Error("nil trace format")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&QueryTrace{QueryID: uint64(i)})
	}
	got := r.Recent()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	want := []uint64{2, 3, 4}
	for i, tr := range got {
		if tr.QueryID != want[i] {
			t.Errorf("ring[%d] = %d, want %d (%v)", i, tr.QueryID, want[i], fmt.Sprint(got))
		}
	}
	var nr *TraceRing
	nr.Add(&QueryTrace{})
	if nr.Recent() != nil {
		t.Error("nil ring recent")
	}
	r.Add(nil) // ignored
	if len(r.Recent()) != 3 {
		t.Error("nil trace was stored")
	}
}

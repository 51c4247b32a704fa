package transport

import (
	"context"
	"testing"
	"time"
)

// exerciseConnStats pulls dir + lookup + a batch of one and a batch of two
// updates over f and checks the connection's transfer counters move
// coherently.
func exerciseConnStats(t *testing.T, f Factory, addr string) {
	t.Helper()
	reg := newTestRegistry(t, 3)
	ln, err := f.Listen(addr, NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := f.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := conn.Dir(ctx); err != nil {
		t.Fatal(err)
	}
	rs0, err := conn.Lookup(ctx, "set00")
	if err != nil {
		t.Fatal(err)
	}
	rs1, err := conn.Lookup(ctx, "set01")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rs0.Meta().DataSize)
	if _, err := pullOne(ctx, conn, rs0, buf); err != nil {
		t.Fatal(err)
	}
	before := conn.ConnStats()
	if before.MsgsOut < 4 || before.MsgsIn < 4 {
		t.Errorf("after dir+2 lookups+update: msgs = %+v", before)
	}
	if before.BytesIn == 0 || before.BytesOut == 0 {
		t.Errorf("byte counters did not move: %+v", before)
	}
	if before.Batches != 1 || before.BatchedOps != 1 || before.Updates != 1 {
		t.Errorf("batch-of-one counters = %+v", before)
	}

	ops := []UpdateOp{
		{Set: rs0, Dst: make([]byte, rs0.Meta().DataSize)},
		{Set: rs1, Dst: make([]byte, rs1.Meta().DataSize)},
	}
	UpdateAll(ctx, conn, ops)
	for i := range ops {
		if ops[i].Err != nil {
			t.Fatalf("batch op %d: %v", i, ops[i].Err)
		}
	}
	after := conn.ConnStats()
	if after.Batches != 2 || after.BatchedOps != 3 || after.Updates != 3 {
		t.Errorf("batch counters = %+v", after)
	}
	if after.MsgsOut < before.MsgsOut+2 || after.BytesIn <= before.BytesIn {
		t.Errorf("batch did not advance transfer counters: before %+v after %+v", before, after)
	}
}

func TestSockConnStats(t *testing.T) {
	exerciseConnStats(t, SockFactory{}, "127.0.0.1:0")
}

func TestMemConnStats(t *testing.T) {
	exerciseConnStats(t, MemFactory{Net: NewNetwork()}, "m1")
}

package server

import (
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/wal"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		e.Close()
	})
	return s, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingAndCRUD(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 1, "hello world"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("kv", 1)
	if err != nil || v != "hello world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := c.Set("kv", 1, "updated"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get("kv", 1); v != "updated" {
		t.Fatalf("after upsert: %q", v)
	}
	if err := c.Del("kv", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("kv", 1); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestScanProtocol(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")
	for i := uint64(0); i < 20; i++ {
		if err := c.Set("kv", i, "v"); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.Scan("kv", 5, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 || rows[0].Key != 5 || rows[10].Key != 15 {
		t.Fatalf("scan rows: %+v", rows)
	}
	// Max cap honored.
	rows, err = c.Scan("kv", 0, 19, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("capped scan returned %d", len(rows))
	}
}

func TestExplicitTransactions(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 1, "in-txn"); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("kv", 1); err == nil {
		t.Fatal("aborted write visible")
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("kv", 2, "committed"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("kv", 2); err != nil || v != "committed" {
		t.Fatalf("committed read: %q, %v", v, err)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("kv"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := c.Get("nope", 1); err == nil {
		t.Fatal("missing table accepted")
	}
	if err := c.Commit(); err == nil {
		t.Fatal("commit without begin accepted")
	}
	reply, err := c.roundTrip("GIBBERISH")
	if err != nil || !strings.HasPrefix(reply, "-ERR") {
		t.Fatalf("gibberish reply: %q, %v", reply, err)
	}
	reply, _ = c.roundTrip("SET kv notanumber x")
	if !strings.HasPrefix(reply, "-ERR") {
		t.Fatalf("bad key accepted: %q", reply)
	}
}

// TestSetValuesByteExact round-trips values with leading, trailing,
// repeated and only spaces through SET, GET and SCAN: the server takes
// the raw bytes after the key field, not its whitespace-split fields.
// Values with a line break are refused by the client before sending.
func TestSetValuesByteExact(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	values := []string{" lead", "trail ", "two  inner   gaps", "  both  ", " ", "   ", "", "a\tb"}
	for i, v := range values {
		if err := c.Set("kv", uint64(i), v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
		if got, err := c.Get("kv", uint64(i)); err != nil || got != v {
			t.Errorf("Get = %q, %v; want %q", got, err, v)
		}
	}
	rows, err := c.Scan("kv", 0, uint64(len(values)), len(values))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(values) {
		t.Fatalf("scan returned %d rows, want %d", len(rows), len(values))
	}
	for _, r := range rows {
		if r.Value != values[r.Key] {
			t.Errorf("Scan row %d = %q, want %q", r.Key, r.Value, values[r.Key])
		}
	}
	for _, bad := range []string{"a\nb", "a\rb", "\n"} {
		if err := c.Set("kv", 99, bad); err == nil {
			t.Errorf("Set(%q) accepted a line break", bad)
		}
	}
	// The refused values never reached the server: the connection is
	// still in step and key 99 was never written.
	if _, err := c.Get("kv", 99); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("get of refused key: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	admin := dial(t, addr)
	if err := admin.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	const clients, per = 8, 50
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			base := uint64(cl * 1000)
			for i := uint64(0); i < per; i++ {
				if err := c.Set("kv", base+i, "x"); err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	rows, err := admin.Scan("kv", 0, ^uint64(0), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != clients*per {
		t.Fatalf("rows = %d, want %d", len(rows), clients*per)
	}
	stats, err := admin.Stats()
	if err != nil || !strings.Contains(stats, "commits=") {
		t.Fatalf("stats: %q, %v", stats, err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCheckpointCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")
	for i := uint64(0); i < 10; i++ {
		c.Set("kv", i, "x")
	}
	reply, err := c.roundTrip("CHECKPOINT")
	if err != nil || reply != "+OK" {
		t.Fatalf("CHECKPOINT reply = %q, %v", reply, err)
	}
	// Data still readable afterwards.
	if v, err := c.Get("kv", 3); err != nil || v != "x" {
		t.Fatalf("get after checkpoint: %q, %v", v, err)
	}
}

func TestClientRaw(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	reply, err := c.Raw("PING")
	if err != nil || reply != "PONG" {
		t.Fatalf("Raw(PING) = %q, %v", reply, err)
	}
	if _, err := c.Raw("NONSENSE"); err == nil {
		t.Fatal("Raw accepted nonsense")
	}
	reply, err = c.Raw("CHECKPOINT")
	if err != nil || reply != "OK" {
		t.Fatalf("Raw(CHECKPOINT) = %q, %v", reply, err)
	}
}

func TestBackupCommand(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.CreateTable("kv")
	for i := uint64(0); i < 25; i++ {
		c.Set("kv", i, "x")
	}
	path := t.TempDir() + "/backup.hydra"
	if _, err := c.Raw("BACKUP " + path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := buffer.NewMemStore()
	dev := wal.NewMem()
	if err := core.RestoreInto(f, store, dev); err != nil {
		t.Fatal(err)
	}
	e2, err := core.OpenWith(core.Scalable(), store, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl, err := e2.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	e2.Exec(func(tx *core.Txn) error {
		n := 0
		tx.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
		if n != 25 {
			t.Fatalf("restored rows = %d", n)
		}
		return nil
	})
}

package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"webbase/internal/trace"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTest(t, Options{})
	key := "GET http://example.test/page?Make=ford&Model=escort"
	payload := []byte("hello, durable world")
	if err := s.Put("pages", key, 7, payload); err != nil {
		t.Fatal(err)
	}
	got, gen, err := s.Get("pages", key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || gen != 7 {
		t.Fatalf("Get = (%q, %d), want (%q, 7)", got, gen, payload)
	}
	// A second store rooted at the same dir sees the record (restart).
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := s2.Get("pages", key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after reopen: Get = (%q, %v)", got, err)
	}
}

func TestStoreMissIsNotExist(t *testing.T) {
	s := openTest(t, Options{Metrics: trace.NewRegistry()})
	_, _, err := s.Get("pages", "never written")
	if !IsNotExist(err) {
		t.Fatalf("miss error = %v, want ErrNotExist", err)
	}
	if IsCorrupt(err) {
		t.Fatal("a clean miss must not classify as corruption")
	}
}

// TestStoreMetricsRegisteredAtOpen: a freshly opened store lists its
// three failure totals at 0, before anything has failed.
func TestStoreMetricsRegisteredAtOpen(t *testing.T) {
	reg := trace.NewRegistry()
	openTest(t, Options{Metrics: reg})
	counters := reg.Snapshot().Counters
	for _, name := range []string{"store_corrupt_total", "store_evicted_total", "store_write_failed_total"} {
		if n, ok := counters[name]; !ok || n != 0 {
			t.Errorf("%s = %d (registered=%v), want 0 and registered", name, n, ok)
		}
	}
}

func TestStoreDeleteAndScan(t *testing.T) {
	s := openTest(t, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put("maps", fmt.Sprintf("site-%d", i), uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("maps", "site-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("maps", "site-2"); err != nil {
		t.Fatalf("double delete errored: %v", err)
	}
	seen := map[string]uint64{}
	if err := s.Scan("maps", func(key string, gen uint64, _ []byte) { seen[key] = gen }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("scan saw %d records, want 4: %v", len(seen), seen)
	}
	if _, ok := seen["site-2"]; ok {
		t.Fatal("deleted record still scanned")
	}
	if seen["site-3"] != 3 {
		t.Fatalf("site-3 generation = %d, want 3", seen["site-3"])
	}
	if err := s.DeleteTier("maps"); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Scan("maps", func(string, uint64, []byte) { n++ })
	if n != 0 {
		t.Fatalf("DeleteTier left %d records", n)
	}
}

// corruptFile finds the tier's single record file and rewrites it.
func corruptFile(t *testing.T, s *Store, tier string, mutate func([]byte) []byte) {
	t.Helper()
	dir := filepath.Join(s.Dir(), tier)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mutated := 0
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		mutated++
	}
	if mutated == 0 {
		t.Fatal("no record files to corrupt")
	}
}

// TestStoreCorruptionModes drives every corruption mode ISSUE 8 names
// through Get: each must come back as a typed ErrCorrupt (never a panic,
// never silently wrong data) with the per-tier metric incremented.
func TestStoreCorruptionModes(t *testing.T) {
	modes := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"bit-flip-payload", func(d []byte) []byte {
			d[len(d)-checksumLen-1] ^= 0x40
			return d
		}},
		{"bit-flip-header", func(d []byte) []byte {
			d[17] ^= 0x01 // key length
			return d
		}},
		{"version-skew", func(d []byte) []byte {
			binary.BigEndian.PutUint16(d[4:6], FormatVersion+1)
			return d
		}},
		{"bad-magic", func(d []byte) []byte {
			copy(d, "NOPE")
			return d
		}},
		{"appended-garbage", func(d []byte) []byte { return append(d, "tail"...) }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			reg := trace.NewRegistry()
			s := openTest(t, Options{Metrics: reg})
			if err := s.Put("pages", "the-key", 1, []byte("the payload bytes")); err != nil {
				t.Fatal(err)
			}
			corruptFile(t, s, "pages", mode.mutate)
			_, _, err := s.Get("pages", "the-key")
			if !IsCorrupt(err) {
				t.Fatalf("corrupt read error = %v, want ErrCorrupt", err)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["store_corrupt_total"]; got != 1 {
				t.Errorf("store_corrupt_total = %d, want 1", got)
			}
			if got := snap.Counters[`store_corrupt_total{tier="pages"}`]; got != 1 {
				t.Errorf(`store_corrupt_total{tier="pages"} = %d, want 1`, got)
			}
			// Scan skips the bad record instead of failing the tier.
			n := 0
			if err := s.Scan("pages", func(string, uint64, []byte) { n++ }); err != nil {
				t.Fatalf("scan over corrupt tier errored: %v", err)
			}
			if n != 0 {
				t.Errorf("scan yielded %d records from a corrupt tier", n)
			}
		})
	}
}

// TestStoreWrongKeyRecord: a record renamed onto another key's slot (or a
// hash collision) is detected by the embedded-key check.
func TestStoreWrongKeyRecord(t *testing.T) {
	reg := trace.NewRegistry()
	s := openTest(t, Options{Metrics: reg})
	if err := s.Put("pages", "key-a", 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Move key-a's file onto key-b's slot.
	if err := os.Rename(s.path("pages", "key-a"), s.path("pages", "key-b")); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Get("pages", "key-b")
	if !IsCorrupt(err) {
		t.Fatalf("wrong-key read = %v, want ErrCorrupt", err)
	}
	if got := reg.Snapshot().Counters[`store_corrupt_total{tier="pages"}`]; got != 1 {
		t.Errorf("corruption not counted: %d", got)
	}
}

// TestStoreTornWrite: a write that persisted only a prefix (crash between
// write and fsync) reads back as typed corruption via the FaultFS double.
func TestStoreTornWrite(t *testing.T) {
	reg := trace.NewRegistry()
	ffs := &FaultFS{TornWriteBytes: headerLen + 3}
	dir := t.TempDir()
	s, err := Open(dir, Options{Metrics: reg, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("health", "sites", 0, []byte(`{"host":"quarantined"}`)); err != nil {
		t.Fatalf("torn write must look like success to the writer: %v", err)
	}
	if ffs.Writes() == 0 {
		t.Fatal("fault double saw no writes")
	}
	_, _, err = s.Get("health", "sites")
	if !IsCorrupt(err) {
		t.Fatalf("read after torn write = %v, want ErrCorrupt", err)
	}
	if got := reg.Snapshot().Counters[`store_corrupt_total{tier="health"}`]; got != 1 {
		t.Errorf("torn write not counted as corruption: %d", got)
	}
}

// TestStoreReadFaults: hard read failures and corruption-on-read (bit rot
// below the filesystem) both degrade to typed errors.
func TestStoreReadFaults(t *testing.T) {
	t.Run("fail-reads", func(t *testing.T) {
		reg := trace.NewRegistry()
		ffs := &FaultFS{}
		s, err := Open(t.TempDir(), Options{Metrics: reg, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("breaker", "circuits", 0, []byte("{}")); err != nil {
			t.Fatal(err)
		}
		ffs.FailReads = errors.New("disk yanked")
		if _, _, err := s.Get("breaker", "circuits"); !IsCorrupt(err) {
			t.Fatalf("failed read = %v, want ErrCorrupt", err)
		}
	})
	t.Run("corrupt-read", func(t *testing.T) {
		reg := trace.NewRegistry()
		ffs := &FaultFS{CorruptRead: func(d []byte) []byte {
			if len(d) > 0 {
				d[0] ^= 0xFF
			}
			return d
		}}
		s, err := Open(t.TempDir(), Options{Metrics: reg, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("breaker", "circuits", 0, []byte("{}")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get("breaker", "circuits"); !IsCorrupt(err) {
			t.Fatalf("bit-rotted read = %v, want ErrCorrupt", err)
		}
	})
	t.Run("fail-writes", func(t *testing.T) {
		reg := trace.NewRegistry()
		ffs := &FaultFS{FailWrites: errors.New("disk full")}
		s, err := Open(t.TempDir(), Options{Metrics: reg, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("pages", "k", 0, []byte("v")); err == nil {
			t.Fatal("write fault not reported")
		}
		if got := reg.Snapshot().Counters[`store_write_failed_total{tier="pages"}`]; got != 1 {
			t.Errorf("write failure not counted: %d", got)
		}
	})
}

// TestStoreConcurrentReplace: readers racing writers on the same key
// always see a complete record — the old one or the new one, never a
// hybrid — thanks to atomic temp-write+rename. Run with -race.
func TestStoreConcurrentReplace(t *testing.T) {
	s := openTest(t, Options{Metrics: trace.NewRegistry()})
	const key = "contended"
	if err := s.Put("pages", key, 0, []byte("gen-0")); err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				payload := []byte(fmt.Sprintf("writer-%d-iteration-%d", w, i))
				if err := s.Put("pages", key, uint64(i), payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				got, _, err := s.Get("pages", key)
				if err != nil {
					t.Errorf("concurrent read: %v", err)
					return
				}
				if len(got) == 0 {
					t.Error("concurrent read returned an empty payload")
					return
				}
			}
		}()
	}
	readers.Wait() // every read raced live replacements
	close(stop)
	writers.Wait()
}

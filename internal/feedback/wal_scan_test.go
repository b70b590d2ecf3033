package feedback

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOpenWALRefusesDamagedMagic: a live segment whose magic is whole
// but wrong is no log at all. Replay refuses it, so OpenWAL must refuse
// it too and leave every byte in place, instead of truncating its
// records away to repair a tail.
func TestOpenWALRefusesDamagedMagic(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, testConfig(dir), 4)
	path, _, _ := lastFrame(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Replay(dir, func([]byte) error { return nil }); err == nil {
		t.Fatal("Replay accepted a segment with a damaged magic")
	}
	if w, err := OpenWAL(dir, WALOptions{}); err == nil {
		w.Close()
		t.Fatal("OpenWAL accepted a segment with a damaged magic")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("OpenWAL rewrote the refused %d-byte segment to %d bytes", len(data), len(after))
	}
}

// walSegment returns the bytes of a real live segment holding records.
func walSegment(t testing.TB, records ...string) []byte {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzWALSegment holds the one frame walk to its three readers: for any
// bytes written as a lone live segment, nothing panics; ParseSegment
// accepts the bytes exactly when OpenWAL's tail repair keeps all of
// them; and Replay yields exactly the records ParseSegment yields on
// the repaired prefix. A segment whose magic is whole but wrong is
// refused by Replay and OpenWAL alike, and left as it was.
func FuzzWALSegment(f *testing.F) {
	seg := walSegment(f, `{"kind":"model"}`, `{"kind":"outcome","n":1}`, "x", `{"kind":"outcome","n":22}`)
	last := len(seg) - (frameHeader + len(`{"kind":"outcome","n":22}`))
	flipped := bytes.Clone(seg)
	flipped[last+frameHeader+4] ^= 0x10 // wal_test's CRC case: payload bit, framing intact
	badMagic := bytes.Clone(seg)
	badMagic[3] ^= 0x20
	for _, seed := range [][]byte{
		seg,
		seg[:last+frameHeader+(len(seg)-last-frameHeader)/2], // torn final payload
		seg[:last+3],          // torn final header
		flipped,               // CRC mismatch on the final record
		seg[:len(segMagic)],   // magic only: an empty live segment
		seg[:len(segMagic)-3], // torn magic: a crash at segment creation
		badMagic,
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		collect := func(into *[][]byte) func([]byte) error {
			return func(p []byte) error {
				*into = append(*into, bytes.Clone(p))
				return nil
			}
		}
		var replayed, parsed [][]byte
		_, replayErr := Replay(dir, collect(&replayed))
		parseErr := ParseSegment(data, func([]byte) error { return nil })

		w, openErr := OpenWAL(dir, WALOptions{SyncEvery: 0})
		if openErr != nil {
			if replayErr == nil || parseErr == nil {
				t.Fatalf("OpenWAL refused (%v) what Replay (%v) or ParseSegment (%v) accepted", openErr, replayErr, parseErr)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
				t.Fatalf("OpenWAL changed the segment it refused (read error %v)", err)
			}
			return
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if replayErr != nil {
			t.Fatalf("Replay refused (%v) what OpenWAL repaired", replayErr)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if kept := bytes.Equal(repaired, data); kept != (parseErr == nil) {
			t.Fatalf("repair kept all %d bytes: %v; ParseSegment: %v", len(data), kept, parseErr)
		}
		if err := ParseSegment(repaired, collect(&parsed)); err != nil {
			t.Fatalf("the repaired prefix does not parse: %v", err)
		}
		if !reflect.DeepEqual(replayed, parsed) {
			t.Fatalf("Replay yielded %d records, the repaired prefix %d", len(replayed), len(parsed))
		}
	})
}

package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"mobispatial/internal/dataset"
)

// appendBinary appends a fixed-width encoding of the operations to dst; two
// streams are the same stream exactly when their encodings are equal.
func appendBinary(dst []byte, ops []Op) []byte {
	for i := range ops {
		o := &ops[i]
		var flags byte
		if o.Data {
			flags |= 1
		}
		if o.Readback {
			flags |= 2
		}
		dst = append(dst, byte(o.Kind), flags)
		dst = binary.LittleEndian.AppendUint16(dst, o.K)
		dst = binary.LittleEndian.AppendUint32(dst, o.ID)
		for _, f := range o.F {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// stream generates the first two fills of worker w and returns their
// encoding.
func stream(t *testing.T, name string, src *Source, seed int64, w int) []byte {
	t.Helper()
	g, err := New(name, src, seed, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	b = appendBinary(b, g.Place())
	ring := make([]Op, 3001) // odd, so a moving read straddles the fills
	for i := 0; i < 2; i++ {
		g.Fill(ring)
		b = appendBinary(b, ring)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	ds := dataset.NYC() // the generators are dataset-agnostic; NYC builds faster
	for _, name := range Names {
		src, err := NewSource(name, ds)
		if err != nil {
			t.Fatal(err)
		}
		a, b := stream(t, name, src, 7, 0), stream(t, name, src, 7, 0)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", name)
		}
		if bytes.Equal(a, stream(t, name, src, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		if bytes.Equal(a, stream(t, name, src, 7, 1)) {
			t.Errorf("%s: workers 0 and 1 gave the same stream", name)
		}
	}
}

func TestMovingAlternatesMoveAndRead(t *testing.T) {
	ds := dataset.NYC()
	src, err := NewSource("moving", ds)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New("moving", src, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Place()); n != Vehicles {
		t.Fatalf("placed %d vehicles, want %d", n, Vehicles)
	}
	ring := make([]Op, 4*ReadbackEvery*2)
	g.Fill(ring)
	readbacks := 0
	for i, o := range ring {
		if (o.Kind == Move) != (i%2 == 0) {
			t.Fatalf("op %d is %v; moves and reads must alternate", i, o.Kind)
		}
		if o.Kind == Move && int(o.ID) < ds.Len() {
			t.Fatalf("vehicle id %d collides with the base dataset", o.ID)
		}
		if o.Readback {
			readbacks++
		}
	}
	if readbacks != 4 {
		t.Errorf("%d read-backs in %d moves, want every %dth", readbacks, len(ring)/2, ReadbackEvery)
	}
}

package suite

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mmxdsp/internal/apps"
	"mmxdsp/internal/core"
	"mmxdsp/internal/kernels"
	"mmxdsp/internal/vm"
)

// TestMemosAreReadOnly holds the process-wide workload inputs and
// reference outputs (apps.Memos, kernels.Memos) read-only: every one
// hashes the same before and after all 21 programs are built, run and
// checked from several goroutines at once, twice over; every call of a
// memo hands out the same storage, so it is computed once; and two builds
// of a program place byte-identical data sections. Under -race the
// concurrent rounds also catch a write that races the other readers.
func TestMemosAreReadOnly(t *testing.T) {
	memos := kernels.Memos()
	for name, f := range apps.Memos() {
		memos[name] = f
	}
	before := map[string][sha256.Size]byte{}
	storage := map[string][]uintptr{}
	for name, f := range memos {
		before[name], storage[name] = hashMemo(t, name, f)
	}

	progs := All()
	if testing.Short() {
		progs = nil
		for _, name := range []string{"fir.c", "image.mmx", "jpeg.mmx", "radar.mmx", "sad.c"} {
			b, _ := ByName(name)
			progs = append(progs, b)
		}
	}
	const workers = 3
	for range 2 {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(progs); i += workers {
					comp, err := core.CompileBenchmark(progs[i])
					if err == nil {
						_, err = core.RunCompiled(comp, core.DefaultOptions())
					}
					if err != nil {
						t.Errorf("%s: %v", progs[i].Name(), err)
					}
				}
			}()
		}
		wg.Wait()
	}

	for name, f := range memos {
		sum, ptrs := hashMemo(t, name, f)
		if sum != before[name] {
			t.Errorf("%s changed while the suite ran", name)
		}
		if !slices.Equal(ptrs, storage[name]) {
			t.Errorf("%s handed out new storage: it is not computed once", name)
		}
	}
	for _, b := range progs {
		p1, err1 := b.Build()
		p2, err2 := b.Build()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: build: %v, %v", b.Name(), err1, err2)
		}
		if !bytes.Equal(p1.Data, p2.Data) {
			t.Errorf("%s: two builds place different data sections", b.Name())
		}
	}
}

// hashMemo calls a memo (a func() T or func() (T1, T2)) and returns the
// SHA-256 of its results' contents and the addresses of their slices'
// storage.
func hashMemo(t *testing.T, name string, f any) (sum [sha256.Size]byte, ptrs []uintptr) {
	t.Helper()
	fv := reflect.ValueOf(f)
	if fv.Kind() != reflect.Func || fv.Type().NumIn() != 0 {
		t.Fatalf("%s: %T is not a memo", name, f)
	}
	var buf []byte
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			ptrs = append(ptrs, v.Pointer())
			if v.Type().Elem().Kind() == reflect.Uint8 {
				buf = append(buf, v.Bytes()...)
				return
			}
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
		case reflect.Float32, reflect.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		default:
			t.Fatalf("%s: cannot hash a %s", name, v.Type())
		}
	}
	for _, r := range fv.Call(nil) {
		walk(r)
	}
	return sha256.Sum256(buf), ptrs
}

// TestChecksRejectUnrunOutputs runs every program's check on its program
// before it has run: each must find its output region and reject it.
func TestChecksRejectUnrunOutputs(t *testing.T) {
	for _, b := range All() {
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		err = b.Check(vm.New(prog))
		if err == nil || !strings.HasPrefix(err.Error(), b.Name()+": ") || strings.Contains(err.Error(), "cannot read") {
			t.Errorf("%s: check of an unrun program: %v", b.Name(), err)
		}
	}
}

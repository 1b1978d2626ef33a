package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeJSONL feeds the decoder arbitrary bytes, seeded with the
// committed golden traces. It must never panic, and every trace it
// accepts must re-encode to a canonical form that decodes again and
// re-encodes to the same bytes.
func FuzzDecodeJSONL(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) == 0 {
		f.Fatal("no golden traces to seed from")
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeJSONL(data)
		if err != nil {
			return
		}
		first, err := tr.EncodeJSONL()
		if err != nil {
			t.Fatalf("encoding an accepted trace: %v", err)
		}
		again, err := DecodeJSONL(first)
		if err != nil {
			t.Fatalf("decoding the canonical encoding: %v\n%s", err, first)
		}
		second, err := again.EncodeJSONL()
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode -> decode -> encode is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}

package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestAppendMatchesEncodingJSON(t *testing.T) {
	encode := func(v any, escapeHTML bool) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(escapeHTML)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	}
	rng := rand.New(rand.NewSource(3))
	strs := []string{"", "plain", `quo"te\back`, "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t", "<sdss>&co",
		"sep\u2028\u2029x", "bad\xff\xc0utf8\xe2", "日本語 ünïcode 🙂"}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		if i%2 == 0 { // mostly ASCII, where the escapes live
			for j := range b {
				b[j] &= 0x7f
			}
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		for _, escape := range []bool{true, false} {
			if got, want := AppendString(nil, s, escape), encode(s, escape); !bytes.Equal(got, want) {
				t.Errorf("AppendString(%q, %v) = %s, encoding/json %s", s, escape, got, want)
			}
		}
	}
	sub := math.SmallestNonzeroFloat64
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.999999e-7, 1e-7, -3.5e-9, 1e21, 9.999999e20, 1.5e300,
		-1e21, sub, -sub, 2.2250738585072014e-308, math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 100, 17.25}
	for i := 0; i < 2000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		if got, want := AppendFloat(nil, f), encode(f, true); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
}

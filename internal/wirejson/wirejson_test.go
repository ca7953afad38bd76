package wirejson

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"\x00\x01\x1f\b\f\n\r\t\x7f", "\u00e9\u4e2d\U0001f600", "line\u2028para\u2029end",
		"bad \xff\xfe utf8 \xc3", "\xed\xa0\x80 surrogate", "tail \xe2\x80",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendIntsMatchesEncodingJSON(t *testing.T) {
	for _, vs := range [][]int{nil, {}, {0}, {-1, math.MaxInt, math.MinInt}} {
		want, _ := json.Marshal(vs)
		if got := AppendInts(nil, vs); string(got) != string(want) {
			t.Errorf("AppendInts(%v) = %s, want %s", vs, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.5, 1.0 / 3, 2.0 / 3, 0.1 + 0.2,
		1e-6, 9.99e-7, 1e-7, 1.5e-10, 5e-324, 123456789, 1e20, 1e21, 3e300, math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want x%s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json accepts %v", f)
		}
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded; encoding/json refuses it", f)
		}
	}
}

// TestReaderIntegers checks the integer grammar and range limits: what the
// Reader accepts must be what encoding/json decodes into the same type, and
// everything else must fail rather than guess.
func TestReaderIntegers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		bits int
		want int64
		ok   bool
	}{
		{"0", 64, 0, true},
		{"-0", 64, 0, true},
		{" 42 ", 64, 42, true},
		{"9223372036854775807", 64, math.MaxInt64, true},
		{"-9223372036854775808", 64, math.MinInt64, true},
		{"9223372036854775808", 64, 0, false},
		{"-9223372036854775809", 64, 0, false},
		{"2147483647", 32, math.MaxInt32, true},
		{"2147483648", 32, 0, false},
		{"007", 64, 0, false},
		{"1.0", 64, 0, false},
		{"1e3", 64, 0, false},
		{"-", 64, 0, false},
		{"", 64, 0, false},
		{`"1"`, 64, 0, false},
	} {
		rd := NewReader([]byte(tc.in))
		got := rd.Int(tc.bits)
		if ok := rd.End(); ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Int(%d) of %q = %d, ok %v; want %d, ok %v", tc.bits, tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"18446744073709551615", math.MaxUint64, true},
		{"18446744073709551616", 0, false},
		{"-0", 0, false},
		{"-1", 0, false},
	} {
		rd := NewReader([]byte(tc.in))
		got := rd.Uint()
		if ok := rd.End(); ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Uint of %q = %d, ok %v; want %d, ok %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestReaderShape walks an object with Expect, More, Key and Once, and checks
// that every deviation from the canonical shape fails the Reader.
func TestReaderShape(t *testing.T) {
	read := func(in string) ([]int, bool) {
		rd := NewReader([]byte(in))
		var got []int
		var seen uint32
		rd.Expect('{')
		for n := 0; rd.More('}', n); n++ {
			switch string(rd.Key()) {
			case "a":
				rd.Once(&seen, 1)
				got = rd.Ints()
			case "s":
				rd.Once(&seen, 2)
				got = append(got, len(rd.Bytes()))
			default:
				rd.Fail()
			}
		}
		return got, rd.End()
	}
	for in, ok := range map[string]bool{
		`{}`:                    true,
		` { "a" : [ 1 , 2 ] } `: true,
		`{"a":[],"s":"xyz"}`:    true,
		`{"a":[1,2],"a":[3]}`:   false, // duplicate key
		`{"b":1}`:               false, // unknown key
		`{"A":[1]}`:             false, // case-folded key
		`{"a":[1,]}`:            false,
		`{"a":[,1]}`:            false,
		`{"a":[1] "s":"x"}`:     false,
		`{"a":[1]}x`:            false,
		`{"a":null}`:            false,
		`{"s":"esc\"aped"}`:     false,
		"{\"s\":\"\u00e9\"}":    false,
		"{\"s\":\"tab\tin\"}":   false,
		`{"a":[1]`:              false,
		`{"a":[1]}{}`:           false,
	} {
		if _, got := read(in); got != ok {
			t.Errorf("%s: ok %v, want %v", in, got, ok)
		}
	}
	if got, _ := read(`{"a":[]}`); got == nil || len(got) != 0 {
		t.Errorf("[] decoded to %#v, want an empty non-nil slice", got)
	}
	if got, _ := read(`{"a":[-3,` + strconv.Itoa(math.MaxInt) + `]}`); len(got) != 2 || got[0] != -3 || got[1] != math.MaxInt {
		t.Errorf("decoded %v", got)
	}
}

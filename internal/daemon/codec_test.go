package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/session"
	"sflow/internal/solve"
)

// The oracle for the hand codec is encoding/json by reflection, on mirror
// types that have no custom methods.

// responseJSON is Response without its methods.
type responseJSON Response

// oracleRequirement decodes a requirement the way encoding/json always did:
// reflectively into the wire form, then replayed and validated.
type oracleRequirement struct{ r *require.Requirement }

func (o *oracleRequirement) UnmarshalJSON(data []byte) error {
	var w struct {
		Services []int    `json:"services"`
		Edges    [][2]int `json:"edges"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	dec := require.New()
	for _, s := range w.Services {
		dec.AddService(s)
	}
	for _, e := range w.Edges {
		dec.AddDependency(e[0], e[1])
	}
	if err := dec.Validate(); err != nil {
		return err
	}
	o.r = dec
	return nil
}

// requestOracle mirrors Request field for field.
type requestOracle struct {
	Op           string             `json:"op"`
	Algorithm    string             `json:"algorithm,omitempty"`
	Requirement  *oracleRequirement `json:"requirement,omitempty"`
	Source       int                `json:"source,omitempty"`
	Mutations    []Mutation         `json:"mutations,omitempty"`
	Unresponsive []int              `json:"unresponsive,omitempty"`
	Demand       int64              `json:"demand,omitempty"`
	Class        int                `json:"class,omitempty"`
	TTLMS        int64              `json:"ttl_ms,omitempty"`
	Ticket       uint64             `json:"ticket,omitempty"`
}

func (o *requestOracle) request() Request {
	r := Request{Op: o.Op, Algorithm: o.Algorithm, Source: o.Source, Mutations: o.Mutations,
		Unresponsive: o.Unresponsive, Demand: o.Demand, Class: o.Class, TTLMS: o.TTLMS, Ticket: o.Ticket}
	if o.Requirement != nil {
		r.Requirement = o.Requirement.r
	}
	return r
}

// checkRequestDecode holds both entry points of the hand decoder — through
// encoding/json and called directly, as the server codec does — to the
// oracle's accept/reject verdict and decoded value.
func checkRequestDecode(t *testing.T, data []byte) {
	t.Helper()
	var o requestOracle
	oracleErr := json.Unmarshal(data, &o)
	var viaJSON, direct Request
	viaErr := json.Unmarshal(data, &viaJSON)
	directErr := direct.UnmarshalJSON(data)
	if (viaErr == nil) != (oracleErr == nil) || (directErr == nil) != (oracleErr == nil) {
		t.Fatalf("%q: accepted differently: encoding/json %v, via json.Unmarshal %v, direct %v",
			data, oracleErr, viaErr, directErr)
	}
	if oracleErr != nil {
		return
	}
	want := o.request()
	if !sameRequest(viaJSON, want) || !sameRequest(direct, want) {
		t.Fatalf("%q: decoded\n%+v / %+v\nwant %+v", data, viaJSON, direct, want)
	}
}

// sameRequest compares two decoded requests field by field, the requirement
// by content: the decoder's is frozen, the oracle's replayed one is not.
func sameRequest(got, want Request) bool {
	if (got.Requirement == nil) != (want.Requirement == nil) ||
		got.Requirement != nil && !got.Requirement.Equal(want.Requirement) {
		return false
	}
	got.Requirement = want.Requirement
	return reflect.DeepEqual(got, want)
}

// checkResponseEncode holds the hand encoder to encoding/json's bytes, in all
// three forms a response is encoded.
func checkResponseEncode(t *testing.T, r *Response) {
	t.Helper()
	want, wantErr := json.Marshal((*responseJSON)(r))
	got, err := r.MarshalJSON()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("MarshalJSON error %v, encoding/json %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON:\n got %s\nwant %s", got, want)
	}
	if viaJSON, err := json.Marshal(r); err != nil || !bytes.Equal(viaJSON, want) {
		t.Fatalf("json.Marshal: %v\n got %s\nwant %s", err, viaJSON, want)
	}
	prefix := []byte("frame-header")
	if appended, err := r.AppendJSON(prefix); err != nil || !bytes.Equal(appended, append(prefix, want...)) {
		t.Fatalf("AppendJSON: %v\n got %s", err, appended)
	}
}

// corpus holds real encoder output for the seeded responses: flows of every
// registered algorithm on three scenarios, partial flows included, and
// overlays.
type corpus struct {
	flows, overlays []json.RawMessage
}

func buildCorpus(t testing.TB) *corpus {
	c := &corpus{}
	for seed := int64(1); seed <= 3; seed++ {
		sc := testScenario(t, seed)
		srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
		reqs := []*require.Requirement{sc.Req}
		for _, next := range sc.Req.Downstream(sc.Req.Source()) {
			if p, err := require.NewPath(sc.Req.Source(), next); err == nil {
				reqs = append(reqs, p)
			}
		}
		for _, alg := range solve.Names() {
			for _, req := range reqs {
				out, err := srv.Handle(&Request{Op: OpSolve, Algorithm: alg, Requirement: req, Source: sc.SourceNID})
				if err != nil {
					t.Fatal(err)
				}
				if resp := out.(*Response); len(resp.Flow) > 0 {
					c.flows = append(c.flows, resp.Flow)
				}
			}
		}
		out, _ := srv.Handle(&Request{Op: OpInfo})
		c.overlays = append(c.overlays, out.(*Response).Overlay)
		srv.Close()
	}
	if len(c.flows) == 0 {
		t.Fatal("no flows in the corpus")
	}
	return c
}

// seededResponse fills a Response from seed: every field present with
// probability one half, or all of them when seed is a multiple of 4. s is
// the string of every string field.
func (c *corpus) seededResponse(seed int64, s string) *Response {
	rng := rand.New(rand.NewSource(seed))
	all := seed%4 == 0
	on := func() bool { return all || rng.Intn(2) == 0 }
	i64 := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MinInt64 + rng.Int63n(3)
		case 2:
			return math.MaxInt64 - rng.Int63n(3)
		}
		return rng.Int63n(2000) - 1000
	}
	ints := func() []int {
		out := make([]int, rng.Intn(4))
		for i := range out {
			out[i] = int(i64())
		}
		return out
	}
	floats := []float64{0, 1, 0.5, 1.0 / 3, 1e-7, 1e-6, 123456789, 1e20, 1e21, 3e300, -2.5}
	r := &Response{Epoch: rng.Uint64()}
	if on() {
		r.Err = s
	}
	if on() {
		r.Flow = c.flows[rng.Intn(len(c.flows))]
	}
	if on() {
		r.Metric = &qos.Metric{Bandwidth: i64(), Latency: i64()}
	}
	r.Partial = on()
	if on() {
		r.Affected = ints()
	}
	if on() {
		r.Moved = ints()
	}
	if on() {
		r.Overlay = c.overlays[rng.Intn(len(c.overlays))]
	}
	if on() {
		r.Instances = int(i64())
	}
	if on() {
		r.Stats = &session.Stats{Events: i64(), Flushes: i64(), RecomputedSources: i64(), SavedSources: i64(), EvictedRows: i64()}
	}
	if on() {
		r.Ticket = rng.Uint64() >> uint(rng.Intn(64))
	}
	if on() {
		r.Reason = s
	}
	if on() {
		for i := rng.Intn(3) + 1; i > 0; i-- {
			r.Tenants = append(r.Tenants, provision.TenantInfo{Ticket: rng.Uint64(), Tag: s, Class: int(i64()),
				Src: int(i64()), Demand: i64(), ExpiresMS: i64()})
		}
	}
	if on() {
		for i := rng.Intn(3) + 1; i > 0; i-- {
			r.Classes = append(r.Classes, provision.ClassCounters{Class: int(i64()), Admitted: i64(), Rejected: i64(),
				Preempted: i64(), Released: i64(), Expired: i64(), Migrated: i64(), Active: int(i64())})
		}
	}
	if on() {
		r.Utilization = i64()
	}
	if on() {
		for i := rng.Intn(3) + 1; i > 0; i-- {
			r.Links = append(r.Links, LinkStatus{From: int(i64()), To: int(i64()), Capacity: i64(), Load: i64(),
				Utilization: floats[rng.Intn(len(floats))], Tenants: int(i64()), Hot: rng.Intn(2) == 0})
		}
	}
	return r
}

// TestListResponsesMatchEncodingJSON holds the hand-encoded links, tenants
// and classes lists to encoding/json's bytes on the values omitempty and
// float formatting decide: zero and non-zero load, fractional, tiny and huge
// utilizations, hot and cold links, zero and non-zero optional counters.
// A NaN or infinite utilization fails as it does in encoding/json.
func TestListResponsesMatchEncodingJSON(t *testing.T) {
	r := &Response{Epoch: 3, Links: []LinkStatus{
		{From: 1, To: 2, Capacity: 100},
		{From: 1, To: 3, Capacity: 300, Load: 100, Utilization: 1.0 / 3, Tenants: 2},
		{From: 2, To: 3, Capacity: 1 << 40, Load: 1, Utilization: 1.0 / (1 << 40), Tenants: 1},
		{From: 3, To: 1, Capacity: 10, Load: 9, Utilization: 0.9, Tenants: 4, Hot: true},
		{From: 3, To: 2, Capacity: 1, Load: 1e15, Utilization: 1e22, Hot: true},
		{From: -1, To: 0, Capacity: -5, Load: -2, Utilization: -2.5e-9},
	}}
	checkResponseEncode(t, r)
	checkResponseEncode(t, &Response{Epoch: 1, Links: r.Links[:1]})
	checkResponseEncode(t, &Response{Epoch: 4, Utilization: 7,
		Tenants: []provision.TenantInfo{{Ticket: 1, Class: 0, Src: 0, Demand: 10},
			{Ticket: 2, Tag: "<gold & co>", Class: 1, Src: 5, Demand: 50, ExpiresMS: 1700000000000}},
		Classes: []provision.ClassCounters{{Class: 0},
			{Class: 1, Admitted: 3, Rejected: 1, Preempted: 1, Released: 1, Expired: 1, Migrated: 2, Active: 1}}})
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkResponseEncode(t, &Response{Links: []LinkStatus{{From: 1, To: 2, Capacity: 1, Utilization: u}}})
	}
}

// goldenRequests returns the request lines of the golden frames file.
func goldenRequests(t testing.TB) [][]byte {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		if req, ok := strings.CutPrefix(line, "> "); ok {
			out = append(out, []byte(req))
		}
	}
	return out
}

// FuzzDaemonCodec is the oracle of the hand codec. On arbitrary bytes the
// Request decoder must accept exactly what encoding/json accepts and decode
// the same value; on seeded Responses, built from real flows and overlays
// and from the fuzzed string, the encoder must produce encoding/json's bytes.
func FuzzDaemonCodec(f *testing.F) {
	for i, req := range goldenRequests(f) {
		f.Add(req, int64(i), "")
	}
	f.Add([]byte(`null`), int64(4), "<script>&amp;</script>")
	f.Add([]byte(` {"op" : "solve" , "source":-0} `), int64(5), "line\u2028para\u2029end")
	f.Add([]byte(`{"OP":"solve","Source":3}`), int64(6), "bad utf8 \xff\xfe\xc3")
	f.Add([]byte(`{"op":"solve","op":"mutate"}`), int64(7), "quote \" backslash \\ ctl \x00\x01\b\f\n\r\t\x7f")
	f.Add([]byte(`{"op":"admit","demand":1e3,"ticket":-1}`), int64(8), "\u00e9\u4e2d\U0001f600")
	f.Add([]byte(`{"op":"mutate","mutations":[{"kind":"add-link","from":1,"from":2}]}`), int64(9), "")
	f.Add([]byte(`{"requirement":{"services":[1,2],"edges":[[1,2,3]]},"unresponsive":[]}`), int64(10), "")
	f.Add([]byte(`{"requirement":{"services":[1,2],"edges":[[1,2]]},"requirement":null}`), int64(11), "")
	f.Add([]byte(`{"op":"solve","source":9223372036854775808}`), int64(12), "")
	f.Add([]byte(`{"op":"solve","mutations":null}`), int64(13), "")
	c := buildCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, s string) {
		checkRequestDecode(t, data)
		checkResponseEncode(t, c.seededResponse(seed, s))
	})
}

// TestRequestIsZeroCoversEveryField guards the hand decoder's zero check: a
// Request with any one field set must not count as zero.
func TestRequestIsZeroCoversEveryField(t *testing.T) {
	if !new(Request).isZero() {
		t.Fatal("the zero Request is not zero")
	}
	typ := reflect.TypeOf(Request{})
	for i := 0; i < typ.NumField(); i++ {
		var r Request
		f := reflect.ValueOf(&r).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		default:
			t.Fatalf("field %s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if r.isZero() {
			t.Fatalf("Request with %s set counts as zero", typ.Field(i).Name)
		}
	}
}

// TestCodecAllocationCeilings pins what the server codec allocates for the
// solve-hot scenario's DAG solve: decoding the request, beyond what building
// its requirement graph costs (that is require's representation, not the
// codec), and encoding the response into a reused frame buffer.
func TestCodecAllocationCeilings(t *testing.T) {
	sc := testScenario(t, 1)
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
	defer srv.Close()
	req := &Request{Op: OpSolve, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID}
	data, err := clientCodec{}.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	services, edges := sc.Req.Services(), sc.Req.Edges()
	build := testing.AllocsPerRun(200, func() {
		if _, err := require.Build(services, edges); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(200, func() {
		if _, err := (serverCodec{}).Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	buf := make([]byte, 0, 4096)
	encode := testing.AllocsPerRun(200, func() {
		if buf, err = (serverCodec{}).AppendEncode(buf[:0], out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode %.0f allocs (requirement graph %.0f), encode %.0f allocs", decode, build, encode)
	// The request itself is the one allocation of its own.
	const decodeCeiling, encodeCeiling = 1, 0
	if decode-build > decodeCeiling || encode > encodeCeiling {
		t.Fatalf("decode %.0f allocs beyond the requirement graph (ceiling %d), encode %.0f allocs (ceiling %d)",
			decode-build, decodeCeiling, encode, encodeCeiling)
	}
}

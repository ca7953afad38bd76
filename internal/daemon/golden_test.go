package daemon

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sflow/internal/require"
	"sflow/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_frames.txt from the current codecs")

// goldenPath holds one request line ("> ") and its response line ("< ") per
// step of goldenSequence, as the client and server codecs put them on the
// wire.
var goldenPath = filepath.Join("testdata", "golden_frames.txt")

// goldenSequence is a deterministic conversation touching every op, on the
// solve-hot scenario (seed 1, 20 nodes, 5 services x 3 instances). Steps are
// functions so later requests can use earlier answers (tickets).
func goldenSequence(t *testing.T, sc *scenario.Scenario) []func(prev []*Response) *Request {
	t.Helper()
	path := func(sids ...int) *require.Requirement {
		r, err := require.NewPath(sids...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	src := sc.Req.Source()
	next := sc.Req.Downstream(src)[0]
	links := sc.Overlay.Links()
	l0, l1 := links[0], links[len(links)/2]
	newNID := 0
	for _, in := range sc.Overlay.Instances() {
		newNID = max(newNID, in.NID+1)
	}
	victim := sc.Overlay.InstancesOf(next)[0]
	lastTicket := func(prev []*Response) uint64 {
		for i := len(prev) - 1; i >= 0; i-- {
			if prev[i].Ticket != 0 {
				return prev[i].Ticket
			}
		}
		return 0
	}
	fixed := func(r *Request) func([]*Response) *Request { return func([]*Response) *Request { return r } }
	return []func([]*Response) *Request{
		fixed(&Request{Op: OpInfo}),
		fixed(&Request{Op: OpSolve, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID}),
		fixed(&Request{Op: OpSolve, Algorithm: "heuristic", Requirement: path(src, next), Source: sc.SourceNID}),
		fixed(&Request{Op: OpSolve, Algorithm: "fixed", Requirement: path(src, next), Source: sc.SourceNID}),
		fixed(&Request{Op: OpSolve, Algorithm: "sflow", Requirement: sc.Req, Source: sc.SourceNID}),
		fixed(&Request{Op: OpSolve, Algorithm: "no<such>&\"alg\"", Requirement: sc.Req, Source: sc.SourceNID}),
		fixed(&Request{Op: OpSolve, Algorithm: "heuristic"}),
		fixed(&Request{Op: OpSolve, Algorithm: "heuristic", Requirement: path(src, next), Source: victim}),
		fixed(&Request{Op: OpStats}),
		fixed(&Request{Op: OpMutate, Mutations: []Mutation{
			{Kind: MutGrowBandwidth, From: l0.From, To: l0.To, Delta: 7},
			{Kind: MutReduceBandwidth, From: l1.From, To: l1.To, Delta: 3},
		}}),
		fixed(&Request{Op: OpMutate, Mutations: []Mutation{{Kind: MutRemoveLink, From: l0.From, To: l0.To}}}),
		fixed(&Request{Op: OpMutate, Mutations: []Mutation{{Kind: MutAddLink, From: l0.From, To: l0.To, Bandwidth: l0.Bandwidth, Latency: l0.Latency}}}),
		fixed(&Request{Op: OpMutate, Mutations: []Mutation{
			{Kind: MutAddInstance, NID: newNID, SID: next, Host: 0},
			{Kind: MutAddLink, From: sc.SourceNID, To: newNID, Bandwidth: 1000, Latency: 5},
		}}),
		fixed(&Request{Op: OpMutate, Mutations: []Mutation{{Kind: MutRemoveInstance, NID: newNID}}}),
		fixed(&Request{Op: OpMutate, Mutations: []Mutation{{Kind: MutRemoveLink, From: newNID, To: sc.SourceNID}}}),
		fixed(&Request{Op: OpSolve, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID}),
		fixed(&Request{Op: OpAdmit, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID, Demand: 10}),
		fixed(&Request{Op: OpAdmit, Requirement: path(src, next), Source: sc.SourceNID, Demand: 50}),
		fixed(&Request{Op: OpAdmit, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID, Demand: 1 << 40}),
		fixed(&Request{Op: OpTenants}),
		fixed(&Request{Op: OpLinks}),
		func(prev []*Response) *Request { return &Request{Op: OpRelease, Ticket: lastTicket(prev)} },
		fixed(&Request{Op: OpRelease, Ticket: 999}),
		fixed(&Request{Op: OpTenants}),
		fixed(&Request{Op: OpRepair, Requirement: sc.Req, Source: sc.SourceNID, Unresponsive: []int{victim}}),
		fixed(&Request{Op: OpRepair, Source: sc.SourceNID}),
		fixed(&Request{Op: OpInfo}),
		fixed(&Request{Op: OpStats}),
		fixed(&Request{Op: OpAdmit, Algorithm: "heuristic", Requirement: path(src, next), Source: sc.SourceNID, Demand: 5, Class: 1, TTLMS: 60000}),
		fixed(&Request{Op: "bogus"}),
	}
}

// TestGoldenFrames replays goldenSequence through both codecs and the
// handler and requires every request and response to reproduce the committed
// bytes exactly. The file was recorded with the encoding/json codecs, so the
// hand codec must be byte-identical to them on every op.
func TestGoldenFrames(t *testing.T) {
	sc := testScenario(t, 1)
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
	defer srv.Close()

	var got bytes.Buffer
	var prev []*Response
	for _, step := range goldenSequence(t, sc) {
		reqData, err := clientCodec{}.Encode(step(prev))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := serverCodec{}.Decode(reqData)
		if err != nil {
			t.Fatalf("decode %s: %v", reqData, err)
		}
		out, err := srv.Handle(decoded)
		if err != nil {
			t.Fatal(err)
		}
		respData, err := serverCodec{}.Encode(out)
		if err != nil {
			t.Fatal(err)
		}
		prev = append(prev, out.(*Response))
		got.WriteString("> ")
		got.Write(reqData)
		got.WriteString("\n< ")
		got.Write(respData)
		got.WriteByte('\n')
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bufio.NewScanner(bytes.NewReader(got.Bytes()))
	gotLines.Buffer(nil, 1<<20)
	wantLines := bufio.NewScanner(bytes.NewReader(want))
	wantLines.Buffer(nil, 1<<20)
	for line := 1; ; line++ {
		g, w := gotLines.Scan(), wantLines.Scan()
		if !g && !w {
			break
		}
		if g != w || !bytes.Equal(gotLines.Bytes(), wantLines.Bytes()) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", goldenPath, line, gotLines.Bytes(), wantLines.Bytes())
		}
	}
}

package daemon

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/session"
	"sflow/internal/solve"
	"sflow/internal/wirejson"
)

// The daemon's wire protocol: JSON request/response messages carried over
// transport's length-prefixed RPC framing. One Request maps to exactly one
// Response; protocol-level failures travel in Response.Err so a bad solve
// never tears down the connection.

// Operation names a Request can carry.
const (
	// OpSolve runs a centralised federation algorithm against the current
	// epoch's frozen overlay and all-pairs table. Read-only.
	OpSolve = "solve"
	// OpMutate applies a batch of overlay mutations through the writer
	// goroutine and publishes a fresh epoch.
	OpMutate = "mutate"
	// OpRepair re-federates around unresponsive instances, removing them
	// from the daemon's overlay (a mutation).
	OpRepair = "repair"
	// OpInfo reports the current epoch and its overlay. Read-only.
	OpInfo = "info"
	// OpStats reports session statistics via the writer goroutine.
	OpStats = "stats"
	// OpAdmit admits one tenant against the server's capacity allocator,
	// reserving the demanded bandwidth on its residual overlay. The
	// allocator serializes concurrent admissions internally, so this runs
	// on the RPC goroutine without touching the epoch writer.
	OpAdmit = "admit"
	// OpRelease departs an admitted tenant by ticket, returning its
	// reserved capacity.
	OpRelease = "release"
	// OpTenants reports the admitted tenants, per-class counters and
	// residual utilization. Read-only.
	OpTenants = "tenants"
	// OpLinks reports per-link traffic accounting from the admission
	// ledger: capacity, admitted load, utilization and the reoptimizer's
	// hot flag for every boot-overlay link. Read-only.
	OpLinks = "links"
)

// Mutation kinds, mirroring the session's event methods.
const (
	MutAddInstance     = "add-instance"
	MutRemoveInstance  = "remove-instance"
	MutAddLink         = "add-link"
	MutRemoveLink      = "remove-link"
	MutGrowBandwidth   = "grow-bandwidth"
	MutReduceBandwidth = "reduce-bandwidth"
)

// Mutation is one overlay change. Kind selects which fields matter.
type Mutation struct {
	Kind string `json:"kind"`
	// Instance fields (add-instance, remove-instance).
	NID  int `json:"nid,omitempty"`
	SID  int `json:"sid,omitempty"`
	Host int `json:"host,omitempty"`
	// Link fields (add-link, remove-link, grow/reduce-bandwidth).
	From      int   `json:"from,omitempty"`
	To        int   `json:"to,omitempty"`
	Bandwidth int64 `json:"bandwidth,omitempty"`
	Latency   int64 `json:"latency,omitempty"`
	Delta     int64 `json:"delta,omitempty"`
}

// Request is one client call.
type Request struct {
	Op string `json:"op"`

	// Solve / repair fields.
	Algorithm   string               `json:"algorithm,omitempty"`
	Requirement *require.Requirement `json:"requirement,omitempty"`
	Source      int                  `json:"source,omitempty"`

	// Mutate fields.
	Mutations []Mutation `json:"mutations,omitempty"`

	// Repair fields.
	Unresponsive []int `json:"unresponsive,omitempty"`

	// Admit fields (Algorithm, Requirement and Source are shared with
	// solve). TTLMS, when positive, auto-releases the admission after that
	// many milliseconds.
	Demand int64 `json:"demand,omitempty"`
	Class  int   `json:"class,omitempty"`
	TTLMS  int64 `json:"ttl_ms,omitempty"`

	// Release fields.
	Ticket uint64 `json:"ticket,omitempty"`
}

// Response answers one Request. Epoch always names the epoch the answer was
// computed against (for reads) or the epoch the request's effects are visible
// in (for writes), so clients can reason about publication ordering.
type Response struct {
	Epoch uint64 `json:"epoch"`
	// Err carries a protocol-level failure; empty on success.
	Err string `json:"err,omitempty"`

	// Solve / repair results. Flow is the flow graph's canonical JSON —
	// kept raw so equivalence against a stateless solve is byte-exact, and
	// copied verbatim by the encoder (it is already compact encoder output).
	Flow    json.RawMessage `json:"flow,omitempty"`
	Metric  *qos.Metric     `json:"metric,omitempty"`
	Partial bool            `json:"partial,omitempty"`

	// Repair results.
	Affected []int `json:"affected,omitempty"`
	Moved    []int `json:"moved,omitempty"`

	// Info results. Overlay is copied verbatim like Flow.
	Overlay   json.RawMessage `json:"overlay,omitempty"`
	Instances int             `json:"instances,omitempty"`

	// Stats results.
	Stats *session.Stats `json:"stats,omitempty"`

	// Admit results: the granted ticket (its flow graph and metric travel
	// in the shared Flow/Metric fields). On rejection Err is set and Reason
	// carries the machine-readable cause ("quota", "compute", "no-flow",
	// "bandwidth").
	Ticket uint64 `json:"ticket,omitempty"`
	Reason string `json:"reason,omitempty"`

	// Tenants results.
	Tenants     []provision.TenantInfo    `json:"tenants,omitempty"`
	Classes     []provision.ClassCounters `json:"classes,omitempty"`
	Utilization int64                     `json:"utilization,omitempty"`

	// Links results (OpLinks), sorted by (From, To).
	Links []LinkStatus `json:"links,omitempty"`
}

// LinkStatus is one boot-overlay link's traffic account as served by OpLinks.
type LinkStatus struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Capacity is the boot bandwidth; Load the bandwidth admitted tenants
	// hold on the link right now.
	Capacity int64 `json:"capacity"`
	Load     int64 `json:"load,omitempty"`
	// Utilization is Load/Capacity; Tenants how many admissions cross the
	// link; Hot whether the reoptimizer's detector currently flags it.
	Utilization float64 `json:"utilization,omitempty"`
	Tenants     int     `json:"tenants,omitempty"`
	Hot         bool    `json:"hot,omitempty"`
}

// The hand codec. Request.UnmarshalJSON and Response.MarshalJSON back every
// encoding/json caller as well as the server codec, so there is one decoder
// and one encoder of each message; see package wirejson for the rules that
// keep both byte- and value-identical to encoding/json.

// requestJSON is Request without its methods: the encoding/json fallback.
type requestJSON Request

// UnmarshalJSON decodes a request. The canonical shape both clients emit is
// read by hand; any other input, and any decode into a non-zero Request, is
// left to encoding/json, so the accepted inputs and every decoded value are
// encoding/json's.
func (r *Request) UnmarshalJSON(data []byte) error {
	if r.isZero() {
		var v Request
		rd := wirejson.NewReader(data)
		if readRequest(&rd, &v); rd.End() {
			*r = v
			return nil
		}
	}
	return json.Unmarshal(data, (*requestJSON)(r))
}

// isZero reports whether r is the zero Request, the only target whose
// decode the hand path reproduces (encoding/json merges into existing
// values).
func (r *Request) isZero() bool {
	return r.Op == "" && r.Algorithm == "" && r.Requirement == nil && r.Source == 0 &&
		r.Mutations == nil && r.Unresponsive == nil && r.Demand == 0 && r.Class == 0 &&
		r.TTLMS == 0 && r.Ticket == 0
}

var (
	opNames       = []string{OpSolve, OpMutate, OpRepair, OpInfo, OpStats, OpAdmit, OpRelease, OpTenants, OpLinks}
	mutationKinds = []string{MutAddInstance, MutRemoveInstance, MutAddLink, MutRemoveLink, MutGrowBandwidth, MutReduceBandwidth}
	algorithms    = solve.Names()
)

// readName reads a string, sharing the storage of a known name.
func readName(rd *wirejson.Reader, known []string) string {
	b := rd.Bytes()
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// readRequest reads one canonical request object into v. An invalid
// requirement fails the reader, leaving encoding/json to report it.
func readRequest(rd *wirejson.Reader, v *Request) {
	var seen uint32
	var err error
	rd.Expect('{')
	for n := 0; rd.More('}', n); n++ {
		switch string(rd.Key()) {
		case "op":
			rd.Once(&seen, 1<<0)
			v.Op = readName(rd, opNames)
		case "algorithm":
			rd.Once(&seen, 1<<1)
			v.Algorithm = readName(rd, algorithms)
		case "requirement":
			rd.Once(&seen, 1<<2)
			if v.Requirement, err = require.ReadJSON(rd); err != nil {
				rd.Fail()
			}
		case "source":
			rd.Once(&seen, 1<<3)
			v.Source = int(rd.Int(strconv.IntSize))
		case "mutations":
			rd.Once(&seen, 1<<4)
			v.Mutations = []Mutation{}
			rd.Expect('[')
			for i := 0; rd.More(']', i); i++ {
				v.Mutations = append(v.Mutations, readMutation(rd))
			}
		case "unresponsive":
			rd.Once(&seen, 1<<5)
			v.Unresponsive = rd.Ints()
		case "demand":
			rd.Once(&seen, 1<<6)
			v.Demand = rd.Int(64)
		case "class":
			rd.Once(&seen, 1<<7)
			v.Class = int(rd.Int(strconv.IntSize))
		case "ttl_ms":
			rd.Once(&seen, 1<<8)
			v.TTLMS = rd.Int(64)
		case "ticket":
			rd.Once(&seen, 1<<9)
			v.Ticket = rd.Uint()
		default:
			rd.Fail()
		}
	}
}

// readMutation reads one canonical mutation object.
func readMutation(rd *wirejson.Reader) Mutation {
	var m Mutation
	var seen uint32
	rd.Expect('{')
	for n := 0; rd.More('}', n); n++ {
		switch string(rd.Key()) {
		case "kind":
			rd.Once(&seen, 1<<0)
			m.Kind = readName(rd, mutationKinds)
		case "nid":
			rd.Once(&seen, 1<<1)
			m.NID = int(rd.Int(strconv.IntSize))
		case "sid":
			rd.Once(&seen, 1<<2)
			m.SID = int(rd.Int(strconv.IntSize))
		case "host":
			rd.Once(&seen, 1<<3)
			m.Host = int(rd.Int(strconv.IntSize))
		case "from":
			rd.Once(&seen, 1<<4)
			m.From = int(rd.Int(strconv.IntSize))
		case "to":
			rd.Once(&seen, 1<<5)
			m.To = int(rd.Int(strconv.IntSize))
		case "bandwidth":
			rd.Once(&seen, 1<<6)
			m.Bandwidth = rd.Int(64)
		case "latency":
			rd.Once(&seen, 1<<7)
			m.Latency = rd.Int(64)
		case "delta":
			rd.Once(&seen, 1<<8)
			m.Delta = rd.Int(64)
		default:
			rd.Fail()
		}
	}
	return m
}

// MarshalJSON encodes the response as encoding/json would.
func (r *Response) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends the response's JSON to b: the fields in declaration
// order under encoding/json's omitempty and escaping rules. Flow and Overlay
// are copied verbatim, without the re-scan encoding/json gives a RawMessage;
// they must be compact encoder output, which every handler puts there.
func (r *Response) AppendJSON(b []byte) ([]byte, error) {
	b = slices.Grow(b, 96+len(r.Flow)+len(r.Overlay))
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = wirejson.AppendString(b, r.Err)
	}
	if len(r.Flow) > 0 {
		b = append(b, `,"flow":`...)
		b = append(b, r.Flow...)
	}
	if r.Metric != nil {
		b = append(b, `,"metric":{"Bandwidth":`...)
		b = strconv.AppendInt(b, r.Metric.Bandwidth, 10)
		b = append(b, `,"Latency":`...)
		b = strconv.AppendInt(b, r.Metric.Latency, 10)
		b = append(b, '}')
	}
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	if len(r.Affected) > 0 {
		b = append(b, `,"affected":`...)
		b = wirejson.AppendInts(b, r.Affected)
	}
	if len(r.Moved) > 0 {
		b = append(b, `,"moved":`...)
		b = wirejson.AppendInts(b, r.Moved)
	}
	if len(r.Overlay) > 0 {
		b = append(b, `,"overlay":`...)
		b = append(b, r.Overlay...)
	}
	if r.Instances != 0 {
		b = append(b, `,"instances":`...)
		b = strconv.AppendInt(b, int64(r.Instances), 10)
	}
	if st := r.Stats; st != nil {
		b = append(b, `,"stats":{"Events":`...)
		b = strconv.AppendInt(b, st.Events, 10)
		b = append(b, `,"Flushes":`...)
		b = strconv.AppendInt(b, st.Flushes, 10)
		b = append(b, `,"RecomputedSources":`...)
		b = strconv.AppendInt(b, st.RecomputedSources, 10)
		b = append(b, `,"SavedSources":`...)
		b = strconv.AppendInt(b, st.SavedSources, 10)
		b = append(b, `,"EvictedRows":`...)
		b = strconv.AppendInt(b, st.EvictedRows, 10)
		b = append(b, '}')
	}
	if r.Ticket != 0 {
		b = append(b, `,"ticket":`...)
		b = strconv.AppendUint(b, r.Ticket, 10)
	}
	if r.Reason != "" {
		b = append(b, `,"reason":`...)
		b = wirejson.AppendString(b, r.Reason)
	}
	if len(r.Tenants) > 0 {
		b = append(b, `,"tenants":[`...)
		for i, t := range r.Tenants {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendTenant(b, t)
		}
		b = append(b, ']')
	}
	if len(r.Classes) > 0 {
		b = append(b, `,"classes":[`...)
		for i, c := range r.Classes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendClass(b, c)
		}
		b = append(b, ']')
	}
	if r.Utilization != 0 {
		b = append(b, `,"utilization":`...)
		b = strconv.AppendInt(b, r.Utilization, 10)
	}
	if len(r.Links) > 0 {
		b = append(b, `,"links":[`...)
		for i, l := range r.Links {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendLink(b, l); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendTenant appends t as encoding/json marshals a provision.TenantInfo.
func appendTenant(b []byte, t provision.TenantInfo) []byte {
	b = append(b, `{"ticket":`...)
	b = strconv.AppendUint(b, t.Ticket, 10)
	if t.Tag != "" {
		b = append(b, `,"tag":`...)
		b = wirejson.AppendString(b, t.Tag)
	}
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(t.Class), 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(t.Src), 10)
	b = append(b, `,"demand":`...)
	b = strconv.AppendInt(b, t.Demand, 10)
	if t.ExpiresMS != 0 {
		b = append(b, `,"expires_ms":`...)
		b = strconv.AppendInt(b, t.ExpiresMS, 10)
	}
	return append(b, '}')
}

// appendClass appends c as encoding/json marshals a provision.ClassCounters.
func appendClass(b []byte, c provision.ClassCounters) []byte {
	b = append(b, `{"class":`...)
	b = strconv.AppendInt(b, int64(c.Class), 10)
	b = append(b, `,"admitted":`...)
	b = strconv.AppendInt(b, c.Admitted, 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, c.Rejected, 10)
	b = append(b, `,"preempted":`...)
	b = strconv.AppendInt(b, c.Preempted, 10)
	b = append(b, `,"released":`...)
	b = strconv.AppendInt(b, c.Released, 10)
	b = append(b, `,"expired":`...)
	b = strconv.AppendInt(b, c.Expired, 10)
	if c.Migrated != 0 {
		b = append(b, `,"migrated":`...)
		b = strconv.AppendInt(b, c.Migrated, 10)
	}
	b = append(b, `,"active":`...)
	b = strconv.AppendInt(b, int64(c.Active), 10)
	return append(b, '}')
}

// appendLink appends l as encoding/json marshals it; a NaN or infinite
// utilization is an error, as there.
func appendLink(b []byte, l LinkStatus) ([]byte, error) {
	b = append(b, `{"from":`...)
	b = strconv.AppendInt(b, int64(l.From), 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, int64(l.To), 10)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, l.Capacity, 10)
	if l.Load != 0 {
		b = append(b, `,"load":`...)
		b = strconv.AppendInt(b, l.Load, 10)
	}
	if l.Utilization != 0 {
		b = append(b, `,"utilization":`...)
		var err error
		if b, err = wirejson.AppendFloat(b, l.Utilization); err != nil {
			return nil, err
		}
	}
	if l.Tenants != 0 {
		b = append(b, `,"tenants":`...)
		b = strconv.AppendInt(b, int64(l.Tenants), 10)
	}
	if l.Hot {
		b = append(b, `,"hot":true`...)
	}
	return append(b, '}'), nil
}

// serverCodec frames the daemon side of the protocol: requests in, responses
// out. It appends each response straight behind the transport's frame header.
type serverCodec struct{}

func (c serverCodec) Encode(msg any) ([]byte, error) { return c.AppendEncode(nil, msg) }

func (serverCodec) AppendEncode(dst []byte, msg any) ([]byte, error) {
	resp, ok := msg.(*Response)
	if !ok {
		return nil, fmt.Errorf("daemon: server encoding %T, want *Response", msg)
	}
	return resp.AppendJSON(dst)
}

func (serverCodec) Decode(data []byte) (any, error) {
	req := new(Request)
	if err := req.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("daemon: decoding request: %w", err)
	}
	return req, nil
}

// clientCodec frames the client side: requests out, responses in.
type clientCodec struct{}

func (clientCodec) Encode(msg any) ([]byte, error) {
	req, ok := msg.(*Request)
	if !ok {
		return nil, fmt.Errorf("daemon: client encoding %T, want *Request", msg)
	}
	return json.Marshal(req)
}

func (clientCodec) Decode(data []byte) (any, error) {
	resp := new(Response)
	if err := json.Unmarshal(data, resp); err != nil {
		return nil, fmt.Errorf("daemon: decoding response: %w", err)
	}
	return resp, nil
}

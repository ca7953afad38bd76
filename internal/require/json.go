package require

import (
	"encoding/json"
	"fmt"
	"strconv"

	"sflow/internal/wirejson"
)

// requirementJSON is the wire form of a Requirement.
type requirementJSON struct {
	Services []int    `json:"services"`
	Edges    [][2]int `json:"edges"`
}

// MarshalJSON encodes the requirement as {"services": [...], "edges": [[a,b], ...]}.
func (r *Requirement) MarshalJSON() ([]byte, error) {
	return json.Marshal(requirementJSON{Services: r.Services(), Edges: r.Edges()})
}

// UnmarshalJSON decodes and validates a requirement. The canonical wire shape
// is read by hand (ReadJSON); anything else is decoded by encoding/json.
func (r *Requirement) UnmarshalJSON(data []byte) error {
	rd := wirejson.NewReader(data)
	dec, err := ReadJSON(&rd)
	if !rd.End() {
		var w requirementJSON
		if err := json.Unmarshal(data, &w); err != nil {
			return fmt.Errorf("require: decode: %w", err)
		}
		dec, err = Build(w.Services, w.Edges)
	}
	if err != nil {
		return err
	}
	*r = *dec
	return nil
}

// ReadJSON reads one requirement object of the canonical wire shape — the
// keys "services" (an array of integers) and "edges" (an array of integer
// pairs), each at most once — and validates it. On any other input rd fails
// and the result is meaningless: the caller decodes the whole message with
// encoding/json instead. A validation error is returned as encoding/json
// would return it from UnmarshalJSON.
func ReadJSON(rd *wirejson.Reader) (*Requirement, error) {
	var sbuf [16]int
	var ebuf [32][2]int
	var services []int
	var edges [][2]int
	var seen uint32
	rd.Expect('{')
	for n := 0; rd.More('}', n); n++ {
		switch string(rd.Key()) {
		case "services":
			rd.Once(&seen, 1)
			services = sbuf[:0]
			rd.Expect('[')
			for i := 0; rd.More(']', i); i++ {
				services = append(services, int(rd.Int(strconv.IntSize)))
			}
		case "edges":
			rd.Once(&seen, 2)
			edges = ebuf[:0]
			rd.Expect('[')
			for i := 0; rd.More(']', i); i++ {
				rd.Expect('[')
				from := int(rd.Int(strconv.IntSize))
				rd.Expect(',')
				to := int(rd.Int(strconv.IntSize))
				rd.Expect(']')
				edges = append(edges, [2]int{from, to})
			}
		default:
			rd.Fail()
		}
	}
	if rd.Failed() {
		return nil, nil
	}
	return Build(services, edges)
}

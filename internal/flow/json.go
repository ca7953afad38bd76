package flow

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"sflow/internal/wirejson"
)

type assignJSON struct {
	SID, NID int
}

type flowJSON struct {
	Assign []assignJSON `json:"assign"`
	Edges  []Edge       `json:"edges"`
}

// MarshalJSON encodes the flow graph as a sorted assignment plus edge list:
// the bytes encoding/json produces for flowJSON, appended by hand. The output
// is compact and holds no strings, so callers may embed it verbatim. A nil
// graph encodes as null, as encoding/json encodes a nil pointer.
func (g *Graph) MarshalJSON() ([]byte, error) {
	if g == nil {
		return []byte("null"), nil
	}
	sids := make([]int, 0, len(g.assign))
	for sid := range g.assign {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	keys := make([][2]int, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})

	b := make([]byte, 0, 32+24*len(sids)+128*len(keys))
	b = append(b, `{"assign":[`...)
	for i, sid := range sids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"SID":`...)
		b = strconv.AppendInt(b, int64(sid), 10)
		b = append(b, `,"NID":`...)
		b = strconv.AppendInt(b, int64(g.assign[sid]), 10)
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	for i, k := range keys {
		e := g.edges[k]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"FromSID":`...)
		b = strconv.AppendInt(b, int64(e.FromSID), 10)
		b = append(b, `,"ToSID":`...)
		b = strconv.AppendInt(b, int64(e.ToSID), 10)
		b = append(b, `,"FromNID":`...)
		b = strconv.AppendInt(b, int64(e.FromNID), 10)
		b = append(b, `,"ToNID":`...)
		b = strconv.AppendInt(b, int64(e.ToNID), 10)
		b = append(b, `,"Path":`...)
		b = wirejson.AppendInts(b, e.Path)
		b = append(b, `,"Metric":{"Bandwidth":`...)
		b = strconv.AppendInt(b, e.Metric.Bandwidth, 10)
		b = append(b, `,"Latency":`...)
		b = strconv.AppendInt(b, e.Metric.Latency, 10)
		b = append(b, "}}"...)
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON decodes a flow graph, re-validating internal consistency.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w flowJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("flow: decode: %w", err)
	}
	dec := New()
	for _, a := range w.Assign {
		if err := dec.Assign(a.SID, a.NID); err != nil {
			return err
		}
	}
	for _, e := range w.Edges {
		if err := dec.AddEdge(e); err != nil {
			return err
		}
	}
	*g = *dec
	return nil
}

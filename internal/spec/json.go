package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/hgraph"
)

// JSON wire format for specification graphs. The format mirrors the
// hierarchical structure directly so that models are readable and
// hand-editable:
//
//	{
//	  "name": "settop",
//	  "problem": { "root": { "id": "top", "vertices": [...], ... } },
//	  "arch":    { "root": { ... } },
//	  "mappings": [ {"process": "PU1", "resource": "uP1", "latency": 40} ]
//	}
type jsonSpec struct {
	Name     string        `json:"name"`
	Problem  jsonGraph     `json:"problem"`
	Arch     jsonGraph     `json:"arch"`
	Mappings []jsonMapping `json:"mappings"`
}

type jsonGraph struct {
	Name string      `json:"name,omitempty"`
	Root jsonCluster `json:"root"`
}

type jsonCluster struct {
	ID          string             `json:"id"`
	Name        string             `json:"name,omitempty"`
	Attrs       map[string]float64 `json:"attrs,omitempty"`
	Vertices    []jsonVertex       `json:"vertices,omitempty"`
	Edges       []jsonEdge         `json:"edges,omitempty"`
	Interfaces  []jsonInterface    `json:"interfaces,omitempty"`
	PortBinding map[string]string  `json:"portBinding,omitempty"`
}

type jsonVertex struct {
	ID    string             `json:"id"`
	Name  string             `json:"name,omitempty"`
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

type jsonEdge struct {
	From     string             `json:"from"`
	To       string             `json:"to"`
	FromPort string             `json:"fromPort,omitempty"`
	ToPort   string             `json:"toPort,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

type jsonInterface struct {
	ID       string             `json:"id"`
	Name     string             `json:"name,omitempty"`
	Ports    []jsonPort         `json:"ports,omitempty"`
	Clusters []jsonCluster      `json:"clusters"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

type jsonPort struct {
	Name string `json:"name"`
	Dir  string `json:"dir,omitempty"` // "in" (default) or "out"
}

type jsonMapping struct {
	Process  string             `json:"process"`
	Resource string             `json:"resource"`
	Latency  float64            `json:"latency"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// MarshalJSON encodes the specification in the wire format above.
func (s *Spec) MarshalJSON() ([]byte, error) {
	js := jsonSpec{
		Name:    s.Name,
		Problem: jsonGraph{Name: s.Problem.Name, Root: encodeCluster(s.Problem.Root)},
		Arch:    jsonGraph{Name: s.Arch.Name, Root: encodeCluster(s.Arch.Root)},
	}
	for _, m := range s.Mappings {
		js.Mappings = append(js.Mappings, jsonMapping{
			Process: string(m.Process), Resource: string(m.Resource),
			Latency: m.Latency, Attrs: m.Attrs,
		})
	}
	return json.Marshal(js)
}

func encodeCluster(c *hgraph.Cluster) jsonCluster {
	jc := jsonCluster{ID: string(c.ID), Name: c.Name, Attrs: c.Attrs}
	for _, v := range c.Vertices {
		jc.Vertices = append(jc.Vertices, jsonVertex{ID: string(v.ID), Name: v.Name, Attrs: v.Attrs})
	}
	for _, e := range c.Edges {
		jc.Edges = append(jc.Edges, jsonEdge{
			From: string(e.From), To: string(e.To),
			FromPort: e.FromPort, ToPort: e.ToPort, Attrs: e.Attrs,
		})
	}
	for _, i := range c.Interfaces {
		ji := jsonInterface{ID: string(i.ID), Name: i.Name, Attrs: i.Attrs}
		for _, p := range i.Ports {
			dir := "in"
			if p.Dir == hgraph.Out {
				dir = "out"
			}
			ji.Ports = append(ji.Ports, jsonPort{Name: p.Name, Dir: dir})
		}
		for _, sub := range i.Clusters {
			ji.Clusters = append(ji.Clusters, encodeCluster(sub))
		}
		jc.Interfaces = append(jc.Interfaces, ji)
	}
	if len(c.PortBinding) > 0 {
		jc.PortBinding = map[string]string{}
		for k, v := range c.PortBinding {
			jc.PortBinding[k] = string(v)
		}
	}
	return jc
}

// UnmarshalJSON decodes and validates a specification from the wire
// format. New validates both graphs before the mappings.
func (s *Spec) UnmarshalJSON(data []byte) error {
	raw, err := decodeSpec(data)
	if err != nil {
		return err
	}
	dec, err := New(raw.Name, raw.Problem, raw.Arch, raw.Mappings)
	if err != nil {
		return err
	}
	*s = *dec
	return nil
}

// decodeSpec parses the wire format into an unvalidated Spec. Only JSON
// syntax errors fail; structural problems (duplicate IDs, dangling
// edges, bad mappings) are preserved for later analysis.
func decodeSpec(data []byte) (*Spec, error) {
	var js jsonSpec
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	s := &Spec{
		Name:    js.Name,
		Problem: &hgraph.Graph{Name: orDefault(js.Problem.Name, js.Name+".problem"), Root: decodeCluster(js.Problem.Root)},
		Arch:    &hgraph.Graph{Name: orDefault(js.Arch.Name, js.Name+".arch"), Root: decodeCluster(js.Arch.Root)},
	}
	for _, m := range js.Mappings {
		s.Mappings = append(s.Mappings, &Mapping{
			Process: hgraph.ID(m.Process), Resource: hgraph.ID(m.Resource),
			Latency: m.Latency, Attrs: m.Attrs,
		})
	}
	return s, nil
}

func orDefault(v, def string) string {
	if v != "" {
		return v
	}
	return def
}

func decodeCluster(jc jsonCluster) *hgraph.Cluster {
	c := &hgraph.Cluster{ID: hgraph.ID(jc.ID), Name: orDefault(jc.Name, jc.ID), Attrs: jc.Attrs}
	for _, v := range jc.Vertices {
		c.Vertices = append(c.Vertices, &hgraph.Vertex{
			ID: hgraph.ID(v.ID), Name: orDefault(v.Name, v.ID), Attrs: v.Attrs,
		})
	}
	for k, e := range jc.Edges {
		c.Edges = append(c.Edges, &hgraph.Edge{
			ID:   hgraph.ID(fmt.Sprintf("%s:e%d:%s->%s", jc.ID, k, e.From, e.To)),
			From: hgraph.ID(e.From), To: hgraph.ID(e.To),
			FromPort: e.FromPort, ToPort: e.ToPort, Attrs: e.Attrs,
		})
	}
	for _, ji := range jc.Interfaces {
		i := &hgraph.Interface{ID: hgraph.ID(ji.ID), Name: orDefault(ji.Name, ji.ID), Attrs: ji.Attrs}
		for _, p := range ji.Ports {
			dir := hgraph.In
			if p.Dir == "out" {
				dir = hgraph.Out
			}
			i.Ports = append(i.Ports, hgraph.Port{Name: p.Name, Dir: dir})
		}
		for _, sub := range ji.Clusters {
			i.Clusters = append(i.Clusters, decodeCluster(sub))
		}
		c.Interfaces = append(c.Interfaces, i)
	}
	if len(jc.PortBinding) > 0 {
		c.PortBinding = map[string]hgraph.ID{}
		for k, v := range jc.PortBinding {
			c.PortBinding[k] = hgraph.ID(v)
		}
	}
	return c
}

// Write encodes the specification as indented JSON to w, keys in the
// order of the wire structs above.
func (s *Spec) Write(w io.Writer) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// Read decodes a specification from JSON on r.
func Read(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse decodes and validates a specification from JSON bytes already
// in memory.
func Parse(data []byte) (*Spec, error) {
	s := &Spec{}
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadLenient decodes a specification from JSON on r WITHOUT
// validating it: only JSON syntax errors fail. The result may violate
// every structural invariant (duplicate IDs, dangling edges, mappings
// onto unknown elements) — it exists so static analysis (package lint,
// cmd/speclint) can diagnose malformed specifications precisely instead
// of stopping at the first validation error. Exploration and binding
// must never consume a lenient spec directly.
func ReadLenient(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeSpec(data)
}

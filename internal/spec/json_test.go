package spec_test

import (
	"bytes"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestJSONRoundTrip: a written specification reads back to one that
// encodes to the original's bytes, for the reduced Fig. 2 spec, both
// case studies and two synthetic specs. The Fig. 2 spec read back keeps
// its mappings, periods, bus flags, costs and port bindings, which
// guards against a field both encodings drop.
func TestJSONRoundTrip(t *testing.T) {
	mini := spec.BuildMini(t)
	for _, s := range []*spec.Spec{
		mini, models.SetTopBox(), models.SDR(),
		models.Synthetic(models.DefaultSynthetic(2)), models.Synthetic(models.DefaultSynthetic(3)),
	} {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatalf("%s: Write: %v", s.Name, err)
		}
		got, err := spec.Read(&buf)
		if err != nil {
			t.Fatalf("%s: Read: %v", s.Name, err)
		}
		want, err1 := s.MarshalJSON()
		enc, err2 := got.MarshalJSON()
		if err1 != nil || err2 != nil || !bytes.Equal(enc, want) {
			t.Errorf("%s: read back, it encodes to other bytes than the original (%v, %v)", s.Name, err1, err2)
		}
		if s != mini {
			continue
		}
		if m := got.Mapping("PU1", "A"); m == nil || m.Latency != 15 {
			t.Errorf("round-tripped Mapping(PU1,A) = %v", m)
		}
		if got.Period("PD1") != 300 {
			t.Errorf("round-tripped Period(PD1) = %v", got.Period("PD1"))
		}
		if !got.IsComm("C1") {
			t.Error("round-tripped IsComm(C1) = false")
		}
		if got.ResourceCost("A") != 100 {
			t.Errorf("round-tripped ResourceCost(A) = %v", got.ResourceCost("A"))
		}
		av, err := got.ArchViewFor(spec.NewAllocation("uP", "C1", "dD3"), hgraph.Selection{"FPGA": "dD3"})
		if err != nil {
			t.Fatal(err)
		}
		if !av.CanCommunicate("uP", "D3") {
			t.Error("round-tripped arch lost port binding connectivity")
		}
	}
}

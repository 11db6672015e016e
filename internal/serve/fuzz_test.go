package serve

import "testing"

// FuzzSubmitSpec drives a submit body through what the handler does with it
// before admission: the strict decode, then validate at Config's default step
// budget (MaxSessionSteps 100,000). Neither may panic, and a spec both accept must survive the trip
// through its manifest: encodeJSON writes it, decodeStrict reads back the same
// spec. The seed corpus in testdata is the handler tests' bodies.
func FuzzSubmitSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if decodeStrict(body, &spec) != nil || validate(spec, 100000) != nil {
			return
		}
		buf, err := encodeJSON(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		var again JobSpec
		if err := decodeStrict(buf, &again); err != nil {
			t.Fatalf("accepted spec %+v: its encoding %s does not decode: %v", spec, buf, err)
		}
		if again != spec {
			t.Fatalf("accepted spec %+v decodes from its encoding as %+v", spec, again)
		}
	})
}

package wire

import "testing"

// FuzzWireDecode seeds every message except NoFuzzMsg, whose tag the
// analyzer must flag.
func FuzzWireDecode(f *testing.F) {
	var bin binaryCodec
	for _, m := range []Message{FullMsg{}, NoBinEncMsg{}, NoBinDecMsg{}, LegacyMsg{}, LegacyOKMsg{}} {
		if b, err := bin.Encode(m); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var bin binaryCodec
		_, _ = bin.Decode(data)
	})
}

// TestLegacyRoundTrip covers LegacyOKMsg but not LegacyMsg, whose tag
// the analyzer must flag.
func TestLegacyRoundTrip(t *testing.T) {
	var bin binaryCodec
	b, err := bin.Encode(LegacyOKMsg{Legacy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bin.Decode(b); err != nil {
		t.Fatal(err)
	}
}

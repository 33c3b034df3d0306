package enclave

import (
	"bytes"
	"testing"
)

func TestTrustHopWrapRoundTrip(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(Config{CodeIdentity: "hop-b", RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hop-nonce-1")
	rep, err := platform.Attest(next, nonce)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := TrustHop(rep, platform.AttestationPublicKey(), next.Measurement(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if hop.Measurement() != next.Measurement() {
		t.Fatal("hop key bound to wrong measurement")
	}
	sess, err := hop.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// The first wrap is the session's establish frame, the second a
	// GCM-only data frame; the hop's enclave must open both.
	for _, plain := range [][]byte{[]byte("mixed round 1"), []byte("mixed round 2")} {
		ct, err := sess.Wrap(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := next.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("hop round trip = %q, want %q", got, plain)
		}
	}
}

func TestTrustHopRejectsWrongMeasurement(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(Config{CodeIdentity: "hop-genuine", RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hop-nonce-2")
	rep, err := platform.Attest(next, nonce)
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := New(Config{CodeIdentity: "hop-imposter", RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrustHop(rep, platform.AttestationPublicKey(), imposter.Measurement(), nonce); err == nil {
		t.Fatal("hop with unexpected measurement trusted")
	}
	if _, err := TrustHop(rep, platform.AttestationPublicKey(), next.Measurement(), []byte("other")); err == nil {
		t.Fatal("replayed hop report trusted")
	}
}

func TestWrapWithoutKeyFails(t *testing.T) {
	var hop *HopKey
	if _, err := hop.NewSession(); err == nil {
		t.Fatal("session started on a nil hop key")
	}
}

package enclave

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

var (
	sessFixOnce sync.Once
	sessFixEncl *Enclave
)

// sessionFixture shares one small-key enclave across the session tests
// (RSA keygen dominates otherwise).
func sessionFixture(t testing.TB) *Enclave {
	t.Helper()
	sessFixOnce.Do(func() {
		platform, err := NewPlatform()
		if err != nil {
			panic(err)
		}
		if sessFixEncl, err = New(Config{RSABits: 1024}, platform); err != nil {
			panic(err)
		}
	})
	return sessFixEncl
}

func TestSessionRoundTrip(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	before := e.Stats() // lifetime counters persist across the shared fixture
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("establish payload"), []byte("second"), []byte("third")}
	for i, msg := range msgs {
		ct, err := sess.Wrap(msg)
		if err != nil {
			t.Fatalf("wrap %d: %v", i, err)
		}
		plain, err := e.Decrypt(ct)
		if err != nil {
			t.Fatalf("decrypt %d: %v", i, err)
		}
		if !bytes.Equal(plain, msg) {
			t.Fatalf("decrypt %d: plaintext mismatch", i)
		}
	}
	st := e.Stats()
	if est := st.SessionsEstablished - before.SessionsEstablished; st.SessionsActive != 1 || est != 1 {
		t.Fatalf("active/established = %d/%d, want 1/1", st.SessionsActive, est)
	}
	if hits := st.SessionHits - before.SessionHits; hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestSessionUnknownAndReplay(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	before := e.Stats()
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	est, _ := sess.Wrap([]byte("first"))
	data, _ := sess.Wrap([]byte("second"))

	// Data before establish: the enclave has never seen the session.
	if _, err := e.Decrypt(data); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("pre-establish data: got %v, want ErrSessionUnknown", err)
	}
	if _, err := e.Decrypt(est); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Decrypt(data); err != nil {
		t.Fatal(err)
	}
	// Counter reuse: the identical ciphertext must be rejected as a
	// replay, not re-ingested.
	if _, err := e.Decrypt(data); !errors.Is(err, ErrSessionReplay) {
		t.Fatalf("replay: got %v, want ErrSessionReplay", err)
	}
	// A restart (volatile session loss) turns data traffic into the
	// typed unknown-session rejection that drives re-establishment.
	e.ResetSessions()
	if _, err := e.Decrypt(data); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("post-reset data: got %v, want ErrSessionUnknown", err)
	}
	st := e.Stats()
	replays, misses := st.SessionReplays-before.SessionReplays, st.SessionMisses-before.SessionMisses
	if replays != 1 || misses != 2 {
		t.Fatalf("replays/misses = %d/%d, want 1/2", replays, misses)
	}
}

func TestSessionReorderWindow(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	cts := make([][]byte, 80)
	for i := range cts {
		if cts[i], err = sess.Wrap([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Decrypt(cts[0]); err != nil { // establish
		t.Fatal(err)
	}
	// Jump ahead: counter 70 admitted first, then modest reordering
	// within the 64-counter window is admitted exactly once each.
	if _, err := e.Decrypt(cts[70]); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{69, 10, 42} {
		if _, err := e.Decrypt(cts[i]); err != nil {
			t.Fatalf("reordered counter %d: %v", i, err)
		}
		if _, err := e.Decrypt(cts[i]); !errors.Is(err, ErrSessionReplay) {
			t.Fatalf("re-admitted counter %d: %v", i, err)
		}
	}
	// Counter 5 fell 65 behind the high-watermark: outside the window.
	if _, err := e.Decrypt(cts[5]); !errors.Is(err, ErrSessionReplay) {
		t.Fatalf("stale counter: got %v, want ErrSessionReplay", err)
	}
}

func TestSessionCacheEvictionAndEPCAccounting(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{RSABits: 1024, SessionCacheEntries: 2}, platform)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, 3)
	data := make([][]byte, 3)
	for i := range sessions {
		if sessions[i], err = NewSession(e.PublicKey()); err != nil {
			t.Fatal(err)
		}
		est, _ := sessions[i].Wrap([]byte("hello"))
		if data[i], err = sessions[i].Wrap([]byte("steady")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Decrypt(est); err != nil {
			t.Fatal(err)
		}
	}
	// Session 0 was evicted by the third establish; 1 and 2 survive.
	if _, err := e.Decrypt(data[0]); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("evicted session: got %v, want ErrSessionUnknown", err)
	}
	for i := 1; i < 3; i++ {
		if _, err := e.Decrypt(data[i]); err != nil {
			t.Fatalf("surviving session %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.SessionsActive != 2 || st.SessionEvictions != 1 {
		t.Fatalf("active/evictions = %d/%d, want 2/1", st.SessionsActive, st.SessionEvictions)
	}
	if want := 2 * sessionEPCBytes; st.MemoryUsedBytes != want {
		t.Fatalf("EPC accounted %d bytes, want %d", st.MemoryUsedBytes, want)
	}
	e.ResetSessions()
	if st := e.Stats(); st.MemoryUsedBytes != 0 || st.SessionsActive != 0 {
		t.Fatalf("after reset: used/active = %d/%d, want 0/0", st.MemoryUsedBytes, st.SessionsActive)
	}
}

func TestSessionCrossSessionSplice(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	a, _ := NewSession(e.PublicKey())
	b, _ := NewSession(e.PublicKey())
	for _, s := range []*Session{a, b} {
		est, _ := s.Wrap([]byte("hi"))
		if _, err := e.Decrypt(est); err != nil {
			t.Fatal(err)
		}
	}
	ctA, _ := a.Wrap([]byte("payload"))
	before := e.Stats()
	// Graft session B's id onto A's data message: the header is bound
	// as AAD, so the splice must fail authentication, not decrypt under
	// B's key or perturb B's replay window.
	spliced := append([]byte(nil), ctA...)
	copy(spliced[5:5+sessionIDSize], b.sid[:])
	if _, err := e.Decrypt(spliced); !errors.Is(err, ErrCiphertext) {
		t.Fatalf("spliced sid: got %v, want ErrCiphertext", err)
	}
	if st := e.Stats(); st.SessionReplays != before.SessionReplays {
		t.Fatal("splice perturbed replay state")
	}
}

func TestSessionWrapAllocations(t *testing.T) {
	e := sessionFixture(t)
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wrap(make([]byte, 64)); err != nil { // consume the establish
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.Wrap(payload); err != nil {
			t.Fatal(err)
		}
	})
	// One exact-size output buffer per wrap; the cipher and GCM
	// instances are reused across the session.
	if allocs > 2 {
		t.Fatalf("Wrap allocates %.1f times per update, want <= 2", allocs)
	}
}

// FuzzSessionCiphertext drives garbage at the session ciphertext parser:
// truncations, flipped version/sid/counter bytes, cross-session splices
// and counter reuse must all reject cleanly — never panic, and never
// silently ingest. The iteration re-arms a fixed session state so the
// invariant is exact: only a byte-identical replay of the establish
// message may succeed (re-establishment is idempotent by design).
func FuzzSessionCiphertext(f *testing.F) {
	e := sessionFixture(f)
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		f.Fatal(err)
	}
	est, err := sess.Wrap([]byte("establish payload"))
	if err != nil {
		f.Fatal(err)
	}
	consumed, err := sess.Wrap([]byte("consumed data payload"))
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add(append([]byte(nil), est...))
	f.Add(append([]byte(nil), consumed...))
	f.Add(est[:establishHeaderSize])
	f.Add(consumed[:dataHeaderSize])
	f.Add(consumed[:len(consumed)-1])
	flipVer := append([]byte(nil), consumed...)
	flipVer[4] ^= 0xff
	f.Add(flipVer)
	flipSid := append([]byte(nil), consumed...)
	flipSid[7] ^= 0x01
	f.Add(flipSid)
	flipCtr := append([]byte(nil), consumed...)
	binary.LittleEndian.PutUint64(flipCtr[dataHeaderSize-8:], 99)
	f.Add(flipCtr)
	unknown := append([]byte(nil), consumed...)
	if _, err := rand.Read(unknown[5 : 5+sessionIDSize]); err != nil {
		f.Fatal(err)
	}
	f.Add(unknown)
	zeroCtr := append([]byte(nil), consumed...)
	binary.LittleEndian.PutUint64(zeroCtr[dataHeaderSize-8:], 0)
	f.Add(zeroCtr)

	f.Fuzz(func(t *testing.T, body []byte) {
		// Re-arm: session installed, counter 1 consumed. Every valid
		// ciphertext the corpus can replay is therefore already spent.
		e.ResetSessions()
		if _, err := e.Decrypt(est); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Decrypt(consumed); err != nil {
			t.Fatal(err)
		}
		plain, err := e.Decrypt(body)
		if err == nil && !bytes.Equal(body, est) {
			t.Fatalf("forged/replayed session ciphertext accepted (%d bytes, plaintext %q)", len(body), plain)
		}
		if err != nil && !errors.Is(err, ErrCiphertext) &&
			!errors.Is(err, ErrSessionUnknown) && !errors.Is(err, ErrSessionReplay) {
			t.Fatalf("rejection outside the error taxonomy: %v", err)
		}
	})
}

package gsi

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCredentialSaveLoadRoundTrip(t *testing.T) {
	ca := newTestCA(t)
	cred := issue(t, ca, "/CN=roundtrip")
	path := filepath.Join(t.TempDir(), "user.cred")
	if err := cred.Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("credential file mode %v, want 0600", fi.Mode().Perm())
	}
	loaded, err := LoadCredential(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Subject() != "/CN=roundtrip" {
		t.Fatalf("subject = %q", loaded.Subject())
	}
	// The loaded key must still sign valid handshakes.
	pool := NewPool(ca)
	server := issue(t, ca, "/CN=server")
	pa, pb := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := Handshake(pb, server, pool, t0, true)
		errc <- err
	}()
	if _, err := Handshake(pa, loaded, pool, t0, false); err != nil {
		t.Fatalf("handshake with loaded credential: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestProxySurvivesPersistence(t *testing.T) {
	ca := newTestCA(t)
	user := issue(t, ca, "/CN=user")
	proxy, err := user.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "proxy.cred")
	if err := proxy.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCredential(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewPool(ca).Verify(loaded.Chain, t0)
	if err != nil {
		t.Fatal(err)
	}
	if id != "/CN=user" {
		t.Fatalf("identity = %q", id)
	}
}

func TestCertificateSaveLoad(t *testing.T) {
	ca := newTestCA(t)
	path := filepath.Join(t.TempDir(), "ca.cert")
	if err := SaveCertificate(ca.Certificate(), path); err != nil {
		t.Fatal(err)
	}
	cert, err := LoadCertificate(path)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Subject != ca.name {
		t.Fatalf("subject = %q", cert.Subject)
	}
	// A pool built from the loaded certificate verifies chains.
	cred := issue(t, ca, "/CN=x")
	pool := &Pool{cas: map[string]*Certificate{cert.Subject: cert}}
	if _, err := pool.Verify(cred.Chain, t0); err != nil {
		t.Fatal(err)
	}
}

func TestCASaveLoadCanIssue(t *testing.T) {
	ca := newTestCA(t)
	path := filepath.Join(t.TempDir(), "ca.key")
	if err := ca.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCA(path)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := loaded.Issue("/CN=late-user", t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool(ca).Verify(cred.Chain, t0); err != nil {
		t.Fatalf("credential from reloaded CA rejected: %v", err)
	}
}

func TestLoadRejectsWrongFileKinds(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk")
	os.WriteFile(junk, []byte("not a credential"), 0o600)
	if _, err := LoadCredential(junk); err == nil {
		t.Fatal("junk accepted as credential")
	}
	if _, err := LoadCertificate(junk); err == nil {
		t.Fatal("junk accepted as certificate")
	}

	ca := newTestCA(t)
	certPath := filepath.Join(dir, "ca.cert")
	SaveCertificate(ca.Certificate(), certPath)
	if _, err := LoadCredential(certPath); err == nil {
		t.Fatal("certificate file accepted as credential")
	}

	// A non-self-signed credential is not a CA.
	user := issue(t, ca, "/CN=u")
	credPath := filepath.Join(dir, "u.cred")
	user.Save(credPath)
	if _, err := LoadCA(credPath); err == nil {
		t.Fatal("end-entity credential accepted as CA")
	}
	if _, err := LoadCredential(credPath); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadCredential(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
}

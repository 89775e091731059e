// Package gsi simulates the Grid Security Infrastructure the paper
// relies on: X.509-style identity certificates issued by a CA, proxy
// certificates created by delegation (the mechanism a broker uses to
// act on the user's behalf), and GSI-enabled connections with mutual
// authentication, integrity and confidentiality.
//
// The paper states "All the network communications are GSI-enabled and
// are therefore a secure connection"; every Grid Console and broker
// channel in this repository runs through this package. Real GSI uses
// X.509/TLS; this simulation uses Ed25519 certificate chains, an
// ECDH(X25519) key agreement and AES-CTR + HMAC-SHA256 framing, all
// from the standard library, preserving the structure (CA trust roots,
// delegation chains, mutual auth, per-session keys) without dragging
// in the obsolete Globus stack.
package gsi

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Certificate binds a subject distinguished name to an Ed25519 public
// key, signed by its issuer. Proxy certificates (IsProxy) are issued
// by end-entity or proxy certificates rather than a CA, forming a
// delegation chain exactly as in GSI.
type Certificate struct {
	Subject   string
	Issuer    string
	PublicKey ed25519.PublicKey
	NotBefore time.Time
	NotAfter  time.Time
	IsProxy   bool
	Signature []byte
}

// tbs returns the to-be-signed encoding of the certificate. The
// encoding must be canonical — bit-identical wherever it is computed:
// at issue time in one binary, at verification time in another, before
// or after disk and network round trips. Serialization frameworks do
// not guarantee that (gob streams vary with runtime type-registration
// state, and time.Time's binary form varies with monotonic readings
// and zone representation), so the encoding is written by hand:
// length-prefixed fields in fixed order, timestamps as UTC Unix
// nanoseconds.
func (c *Certificate) tbs() []byte {
	var b bytes.Buffer
	writeField := func(data []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(data)))
		b.Write(n[:])
		b.Write(data)
	}
	b.WriteString("crossgrid-cert-v1\n")
	writeField([]byte(c.Subject))
	writeField([]byte(c.Issuer))
	writeField(c.PublicKey)
	var ts [16]byte
	binary.BigEndian.PutUint64(ts[0:8], uint64(c.NotBefore.UTC().UnixNano()))
	binary.BigEndian.PutUint64(ts[8:16], uint64(c.NotAfter.UTC().UnixNano()))
	writeField(ts[:])
	if c.IsProxy {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	return b.Bytes()
}

// Credential is a certificate chain plus the private key of the leaf.
// Chain[0] is the leaf; the last element is the end-entity certificate
// issued directly by a CA.
type Credential struct {
	Chain []*Certificate
	key   ed25519.PrivateKey
}

// leaf returns the chain's leaf certificate.
func (c *Credential) leaf() *Certificate { return c.Chain[0] }

// Subject returns the leaf subject DN.
func (c *Credential) Subject() string { return c.Chain[0].Subject }

// Identity returns the end-entity subject, i.e. the real user behind
// any proxy chain. This is the name resource managers account against.
func (c *Credential) Identity() string { return c.Chain[len(c.Chain)-1].Subject }

// CA is a certificate authority trusted by grid sites.
type CA struct {
	name string
	key  ed25519.PrivateKey
	cert *Certificate
}

// NewCA creates a CA with a fresh key pair. now anchors certificate
// validity.
func NewCA(name string, now time.Time, lifetime time.Duration) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate CA key: %w", err)
	}
	cert := &Certificate{
		Subject:   name,
		Issuer:    name,
		PublicKey: pub,
		NotBefore: now,
		NotAfter:  now.Add(lifetime),
	}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	return &CA{name: name, key: priv, cert: cert}, nil
}

// Certificate returns the CA's self-signed certificate.
func (ca *CA) Certificate() *Certificate { return ca.cert }

// Issue creates an end-entity credential for subject, valid from now
// for lifetime.
func (ca *CA) Issue(subject string, now time.Time, lifetime time.Duration) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate key for %s: %w", subject, err)
	}
	cert := &Certificate{
		Subject:   subject,
		Issuer:    ca.name,
		PublicKey: pub,
		NotBefore: now,
		NotAfter:  now.Add(lifetime),
	}
	cert.Signature = ed25519.Sign(ca.key, cert.tbs())
	return &Credential{Chain: []*Certificate{cert}, key: priv}, nil
}

// Delegate creates a proxy credential signed by c's leaf, the GSI
// mechanism that lets a broker or agent act for the user. The proxy
// lifetime is clipped to the parent's.
func (c *Credential) Delegate(now time.Time, lifetime time.Duration) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate proxy key: %w", err)
	}
	notAfter := now.Add(lifetime)
	if parent := c.leaf(); notAfter.After(parent.NotAfter) {
		notAfter = parent.NotAfter
	}
	cert := &Certificate{
		Subject:   c.Subject() + "/CN=proxy",
		Issuer:    c.Subject(),
		PublicKey: pub,
		NotBefore: now,
		NotAfter:  notAfter,
		IsProxy:   true,
		Signature: nil,
	}
	cert.Signature = ed25519.Sign(c.key, cert.tbs())
	chain := append([]*Certificate{cert}, c.Chain...)
	return &Credential{Chain: chain, key: priv}, nil
}

// Pool is a set of trusted CA certificates.
type Pool struct {
	cas map[string]*Certificate
}

// NewPool returns a pool trusting the given CAs.
func NewPool(cas ...*CA) *Pool {
	p := &Pool{cas: make(map[string]*Certificate)}
	for _, ca := range cas {
		p.cas[ca.name] = ca.cert
	}
	return p
}

// AddCA trusts an additional CA certificate.
func (p *Pool) AddCA(cert *Certificate) { p.cas[cert.Subject] = cert }

// Verification errors.
var (
	ErrEmptyChain     = errors.New("gsi: empty certificate chain")
	ErrUntrustedCA    = errors.New("gsi: chain does not terminate at a trusted CA")
	ErrBadSignature   = errors.New("gsi: bad certificate signature")
	ErrExpired        = errors.New("gsi: certificate expired or not yet valid")
	ErrBrokenChain    = errors.New("gsi: issuer/subject mismatch in chain")
	ErrProxyViolation = errors.New("gsi: non-proxy certificate issued by non-CA")
)

// Verify checks a chain at time now: each certificate is inside its
// validity window, each link is correctly signed by its issuer,
// intermediate links are proxies, and the root link is signed by a
// trusted CA. It returns the end-entity identity on success.
func (p *Pool) Verify(chain []*Certificate, now time.Time) (identity string, err error) {
	if len(chain) == 0 {
		return "", ErrEmptyChain
	}
	for i, cert := range chain {
		if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
			return "", fmt.Errorf("%w: %s", ErrExpired, cert.Subject)
		}
		if i < len(chain)-1 {
			parent := chain[i+1]
			if !cert.IsProxy {
				return "", fmt.Errorf("%w: %s", ErrProxyViolation, cert.Subject)
			}
			if cert.Issuer != parent.Subject {
				return "", fmt.Errorf("%w: %s issued by %s, parent is %s",
					ErrBrokenChain, cert.Subject, cert.Issuer, parent.Subject)
			}
			if !verifySig(parent.PublicKey, cert.tbs(), cert.Signature) {
				return "", fmt.Errorf("%w: %s", ErrBadSignature, cert.Subject)
			}
		}
	}
	root := chain[len(chain)-1]
	caCert, ok := p.cas[root.Issuer]
	if !ok {
		return "", fmt.Errorf("%w: issuer %q", ErrUntrustedCA, root.Issuer)
	}
	if !verifySig(caCert.PublicKey, root.tbs(), root.Signature) {
		return "", fmt.Errorf("%w: %s", ErrBadSignature, root.Subject)
	}
	return root.Subject, nil
}

// sign signs msg with the credential's private key.
func (c *Credential) sign(msg []byte) []byte { return ed25519.Sign(c.key, msg) }

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// digestJSON is the SHA-256 (first 16 hex digits) of v's JSON encoding —
// the same encoding a Run* result's envelope carries as its "data".
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

//go:embed reference.json
var referenceJSON []byte

// references maps an output key (experiment plus the inputs it depends on)
// to its pinned digest.
type references map[string]string

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// check is the output gate: a digest that differs from its pinned
// reference, or has none, is a wrong answer.
func (r references) check(key, got string) error {
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("output gate: no reference digest for %s", key)
	}
	if got != want {
		return fmt.Errorf("output gate: %s digest %s, reference %s", key, got, want)
	}
	return nil
}

func (r references) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package models

import (
	"fmt"

	"repro/internal/spec"
)

// ByName builds the built-in model with the given name; seed only
// shapes the synthetic one.
func ByName(name string, seed int64) (*spec.Spec, error) {
	switch name {
	case "settop":
		return SetTopBox(), nil
	case "decoder":
		return Decoder(), nil
	case "sdr":
		return SDR(), nil
	case "synthetic":
		return Synthetic(DefaultSynthetic(seed)), nil
	default:
		return nil, fmt.Errorf("unknown model %q (settop | decoder | sdr | synthetic)", name)
	}
}

package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// layerSpec is the gob-serializable description of one layer.
type layerSpec struct {
	Kind    string // "linear" or "leakyrelu"
	In, Out int
	Alpha   float64
	W, B    []float64
}

// modelFile is the on-disk representation of a Sequential model.
type modelFile struct {
	Version int
	Specs   []layerSpec
}

// Save writes a Sequential model to w in gob format.
func Save(w io.Writer, m *Sequential) error {
	mf := modelFile{Version: 1}
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Linear:
			mf.Specs = append(mf.Specs, layerSpec{
				Kind: "linear", In: t.In, Out: t.Out,
				W: t.W.Value, B: t.B.Value,
			})
		case *LeakyReLU:
			mf.Specs = append(mf.Specs, layerSpec{Kind: "leakyrelu", Alpha: t.Alpha})
		default:
			return fmt.Errorf("nn: cannot serialize layer of type %T", l)
		}
	}
	if err := gob.NewEncoder(w).Encode(mf); err != nil {
		return fmt.Errorf("nn: encode model: %w", err)
	}
	return nil
}

// Load reads a Sequential model written by Save.
func Load(r io.Reader) (*Sequential, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("nn: decode model: %w", err)
	}
	if mf.Version != 1 {
		return nil, fmt.Errorf("nn: unsupported model version %d", mf.Version)
	}
	var layers []Layer
	for i, sp := range mf.Specs {
		switch sp.Kind {
		case "linear":
			if sp.In <= 0 || sp.Out <= 0 || len(sp.W) != sp.In*sp.Out || len(sp.B) != sp.Out {
				return nil, fmt.Errorf("nn: corrupt linear spec at layer %d", i)
			}
			l := &Linear{
				In: sp.In, Out: sp.Out,
				W: &Param{Value: sp.W, Grad: make([]float64, len(sp.W))},
				B: &Param{Value: sp.B, Grad: make([]float64, len(sp.B))},
			}
			layers = append(layers, l)
		case "leakyrelu":
			layers = append(layers, NewLeakyReLU(sp.Alpha))
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q at layer %d", sp.Kind, i)
		}
	}
	return NewSequential(layers...), nil
}

// MarshalLevels serializes a model's per-level (input scaler, network)
// pairs the way the D-MGARD and E-MGARD model files both store them: the
// scaler statistics in the clear and each network as its own Save blob.
func MarshalLevels(scalers []*Scaler, nets []*Sequential) (means, stds [][]float64, blobs [][]byte, err error) {
	for l, net := range nets {
		means = append(means, scalers[l].Mean)
		stds = append(stds, scalers[l].Std)
		var buf bytes.Buffer
		if err := Save(&buf, net); err != nil {
			return nil, nil, nil, fmt.Errorf("save level %d: %w", l, err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	return means, stds, blobs, nil
}

// UnmarshalLevels rebuilds the pairs of a model file that claims levels
// levels.
func UnmarshalLevels(levels int, means, stds [][]float64, blobs [][]byte) ([]*Scaler, []*Sequential, error) {
	if levels < 1 || len(blobs) != levels || len(means) != levels || len(stds) != levels {
		return nil, nil, fmt.Errorf("corrupt model file")
	}
	scalers := make([]*Scaler, levels)
	nets := make([]*Sequential, levels)
	for l := range nets {
		scalers[l] = &Scaler{Mean: means[l], Std: stds[l]}
		net, err := Load(bytes.NewReader(blobs[l]))
		if err != nil {
			return nil, nil, fmt.Errorf("load level %d: %w", l, err)
		}
		nets[l] = net
	}
	return scalers, nets, nil
}

// WriteGobFile gob-encodes v and commits it at path by temp file + rename,
// so a crash mid-write leaves the previous model (or none), never a
// truncated one.
func WriteGobFile(path string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, buf.Bytes(), 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// ReadGobFile decodes the gob file at path into v.
func ReadGobFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

package smite

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoadProfiles feeds arbitrary bytes to LoadProfiles. It must never
// panic, and any input it accepts must survive a SaveProfiles/LoadProfiles
// round trip unchanged. Seeds live in testdata/fuzz/FuzzLoadProfiles.
func FuzzLoadProfiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		chars, err := LoadProfiles(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveProfiles(&buf, chars); err != nil {
			t.Fatalf("SaveProfiles of accepted profiles: %v", err)
		}
		again, err := LoadProfiles(&buf)
		if err != nil {
			t.Fatalf("LoadProfiles rejected its own SaveProfiles output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(chars, again) {
			t.Fatalf("round trip changed the profiles:\nloaded: %+v\nagain:  %+v", chars, again)
		}
	})
}

// FuzzLoadModel is FuzzLoadProfiles for LoadModel/SaveModel. Seeds live in
// testdata/fuzz/FuzzLoadModel.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			t.Fatalf("SaveModel of accepted model: %v", err)
		}
		again, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("LoadModel rejected its own SaveModel output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the model:\nloaded: %+v\nagain:  %+v", m, again)
		}
	})
}

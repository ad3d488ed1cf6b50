// Package b exercises the errdiscard negative cases: handled errors,
// error-free calls and non-target packages.
package b

import (
	"config"
	"fmt"
	"strings"
	"trace"
)

func handled(w *trace.Writer) error {
	if err := w.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	cfg, err := config.Load("paper.json")
	if err != nil {
		return err
	}
	_ = cfg
	return nil
}

func noError(w *trace.Writer) uint64 {
	return w.Events()
}

func nonTarget(b *strings.Builder) {
	// strings is not a trace/config package; WriteString's error may
	// be dropped freely.
	b.WriteString("ok")
}

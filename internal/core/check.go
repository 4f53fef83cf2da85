package core

import (
	"fmt"

	"f3m/internal/analysis"
	"f3m/internal/analysis/tv"
	"f3m/internal/ir"
)

// CheckMode selects how much static analysis a run performs.
type CheckMode int

// Check modes, from cheapest to most thorough.
const (
	// CheckOff runs no analysis.
	CheckOff CheckMode = iota

	// CheckFast audits every committed merge as it lands: thunk
	// signatures and argument forwarding, discriminator channeling,
	// call-site rewrites and dangling references. One module walk at
	// the first commit builds the auditor's reference index; after
	// that each audit costs O(functions the commit touched + referrers
	// of the originals it deleted), so the total is proportional to
	// merges, not to merges times module size.
	CheckFast

	// CheckStrict is CheckFast plus full-module analysis before and
	// after the pipeline (strict IR verification, module symbol and
	// reference checks) and a lint sweep over the surviving merged
	// functions.
	CheckStrict

	// CheckValidate is CheckStrict plus translation validation before
	// every commit: each profitable merge is specialized at each
	// discriminator value and proven bisimilar to the original it
	// would replace (checker `tv`). A refuted merge is discarded like
	// an unprofitable one and counted in Report.Refuted, so the output
	// module holds only proven merges. The most thorough — and most
	// expensive — tier.
	CheckValidate
)

// String renders the mode as accepted by ParseCheckMode.
func (c CheckMode) String() string {
	switch c {
	case CheckOff:
		return "off"
	case CheckFast:
		return "fast"
	case CheckStrict:
		return "strict"
	case CheckValidate:
		return "validate"
	}
	return fmt.Sprintf("checkmode(%d)", int(c))
}

// ParseCheckMode parses the -check flag values off, fast, strict and
// validate.
func ParseCheckMode(s string) (CheckMode, error) {
	switch s {
	case "off":
		return CheckOff, nil
	case "fast":
		return CheckFast, nil
	case "strict":
		return CheckStrict, nil
	case "validate":
		return CheckValidate, nil
	}
	return CheckOff, fmt.Errorf("core: unknown check mode %q (want off, fast, strict or validate)", s)
}

// startChecks builds the analysis engine for the configured mode and,
// under CheckStrict, runs the pre-pipeline module verification. Returns
// nil under CheckOff; the pipeline's per-commit hook is then one nil
// check.
func startChecks(m *ir.Module, cfg Config) *analysis.Engine {
	if cfg.Check == CheckOff {
		return nil
	}
	eng := analysis.NewEngine(cfg.Metrics)
	if cfg.Check >= CheckValidate {
		eng.Validator = tv.NewValidator(cfg.Metrics)
	}
	if cfg.Check >= CheckStrict {
		eng.StrictModule(m)
	}
	return eng
}

// finishChecks runs the post-pipeline analyses (strict mode only: the
// lint sweep over surviving merged functions, then full re-verification
// of the mutated module) and publishes the accumulated diagnostics on
// the report.
func finishChecks(m *ir.Module, cfg Config, eng *analysis.Engine, rep *Report) {
	if eng == nil {
		return
	}
	if cfg.Check >= CheckStrict {
		eng.LintMerged(m)
		eng.StrictModule(m)
	}
	rep.Diagnostics = eng.All
}

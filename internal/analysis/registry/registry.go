// Package registry assembles the repository's analyzer suite in one
// place, so cmd/synclint and the whole-repo self-check test run exactly
// the same set.
package registry

import (
	"hclocksync/internal/analysis"
	"hclocksync/internal/analysis/allocfree"
	"hclocksync/internal/analysis/nondeterm"
	"hclocksync/internal/analysis/seedflow"
)

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		analysis.DirectiveAnalyzer,
		nondeterm.Analyzer,
		seedflow.Analyzer,
		allocfree.Analyzer,
	}
}

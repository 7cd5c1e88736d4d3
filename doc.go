// Package repro is a from-scratch Go reproduction of "System Design
// for Flexibility" (Haubelt, Teich, Richter, Ernst; DATE 2002): a
// hierarchical graph model for specifications with behavioural
// alternatives, a quantitative flexibility metric, and a
// branch-and-bound flexibility/cost design-space exploration, evaluated
// on the paper's Set-Top box case study.
//
// The library lives under internal/ (see README.md for the package
// map); cmd/ holds the command-line tools and examples/ runnable
// walkthroughs. cmd/experiments regenerates every table and figure of
// the paper's evaluation (experiments E1–E18, indexed in DESIGN.md and
// recorded in EXPERIMENTS.md).
package repro

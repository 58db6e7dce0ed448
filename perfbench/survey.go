package main

// The batch half of a workload: the built lmsurvey binary as a child
// process over the survey archive, repeated for the phase's budget.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/ioutil"
)

// surveyResult is what one workload's batch half measured, one sample
// per timed lmsurvey run.
type surveyResult struct {
	SurveyS, CPUS, PeakRSSMB []float64
}

// minSurveyRuns is the fewest timed lmsurvey runs a phase makes; a
// workload makes two phases.
const minSurveyRuns = 2

// surveyArgs is the lmsurvey command line for an archive.
func surveyArgs(lmsurvey string, in *Inputs, enc string) []string {
	return []string{lmsurvey, "-in", in.SurveyArchive(enc), "-probes", in.Path("probes.json")}
}

// runSurveyPhase reads the input files once, so the page cache holds
// them as it does for a user re-running a survey, then makes timed
// lmsurvey runs until budget has passed and at least minSurveyRuns were
// made, appending their samples to res. Every run's output is checked.
func runSurveyPhase(self string, argv []string, in *Inputs, budget time.Duration, res *surveyResult, ops *opCounter, tr *Tracer, parent spanRef) error {
	span := tr.Start("survey", parent)
	defer span.End()
	for _, path := range argv[1:] {
		if _, err := os.Stat(path); err == nil {
			if err := readAll(path); err != nil {
				return err
			}
		}
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < minSurveyRuns || time.Now().Before(deadline); i++ {
		sp := tr.Start("lmsurvey", span)
		var out bytes.Buffer
		u, err := measureChild(self, &out, nil, argv...)
		sp.End()
		if err != nil {
			return err
		}
		ops.attempt()
		if u.Exit != 0 {
			ops.fail(fmt.Errorf("lmsurvey exited %d", u.Exit))
			continue
		}
		if errs := checkSurvey(out.String(), &in.Manifest); len(errs) > 0 {
			ops.failAll(errs)
			continue
		}
		res.SurveyS = append(res.SurveyS, u.WallS)
		res.CPUS = append(res.CPUS, u.CPUS())
		res.PeakRSSMB = append(res.PeakRSSMB, u.PeakRSSMB())
	}
	return nil
}

// readAll reads a file to its end and discards it.
func readAll(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseQuiet(f)
	_, err = io.Copy(io.Discard, f)
	return err
}

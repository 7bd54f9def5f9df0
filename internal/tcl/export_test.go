package tcl

import "fmt"

// This file holds the engine oracle: the classic tree-walking
// evaluator, which defines the semantics the bytecode VM is checked
// against, and the switch that puts an interpreter on it. It is part
// of the test build only, so production runs one engine.

// UseTreeWalker makes in evaluate every script, loop body and command
// substitution with the tree-walking oracle instead of the VM.
func (in *Interp) UseTreeWalker() { in.oracle = in.treeExec }

// treeExec is the classic tree-walking evaluator: substitute each
// command's words, dispatch, repeat. Kept bug-for-bug stable: it is
// the differential oracle the bytecode engine is checked against.
func (in *Interp) treeExec(s *Script) (Value, error) {
	var result Value
	for _, cmd := range s.cmds {
		argv, err := in.substWords(cmd.words)
		if err != nil {
			return Value{}, err
		}
		if len(argv) == 0 {
			continue
		}
		res, err := in.invoke(argv)
		result = strVal(res)
		if err != nil {
			if in.nesting == 1 {
				// The error reached the top level: finish the
				// traceback (or start it, for a top-level error).
				in.recordErrorInfo(err, fmt.Sprintf("while executing %q", argv[0]))
				in.errorUnwinding = false
			}
			return result, err
		}
	}
	if s.parseErr != nil {
		// The incremental evaluator runs every command preceding a
		// malformed one before reporting the parse error; replay that.
		return Value{}, s.parseErr
	}
	return result, nil
}

package session

import "sflow/internal/qos"

// Enter and Exit expose the misuse detector to the blackbox tests, which use
// them to hold the in-use flag exactly as a stuck concurrent call would.
func (s *Session) Enter(op string) { s.enter(op) }
func (s *Session) Exit()           { s.exit() }

// TableStats exposes the eager table's invalidation and freeze counts to the
// blackbox count pins.
func (s *Session) TableStats() qos.Stats { return s.inc.Stats() }

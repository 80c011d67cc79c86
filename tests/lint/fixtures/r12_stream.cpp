// mclint fixture: R12 stream-lifecycle. A stream-hierarchy handle owns a
// partition of the leap-table stream space: copying it duplicates live
// streams, using it after a std::move hand-off replays streams the new
// owner is consuming, and a by-reference lambda capture can outlive the
// rank that owns it. Never compiled — linted only.

namespace parmonc {

void consumeHierarchy(StreamHierarchy Taken);

// Positive: used after the hand-off transferred ownership.
void fixtureUseAfterHandoff(LeapTable &Table) {
  StreamHierarchy Owner(Table);
  consumeHierarchy(std::move(Owner));
  Owner.leapTable(); // expect: R12
}

// Positive: the merge joins {moved, live} to moved — the use below is
// a replay on the Flag path even though the else path never moved.
void fixtureBranchMove(LeapTable &Table, bool Flag) {
  StreamHierarchy Owner(Table);
  if (Flag)
    consumeHierarchy(std::move(Owner));
  Owner.leapTable(); // expect: R12
}

// Positive: copy-initialization duplicates the live stream partition.
void fixtureCopyDuplicates(LeapTable &Table) {
  StreamHierarchy Owner(Table);
  StreamHierarchy Alias = Owner; // expect: R12
  Alias.leapTable();
}

// Positive: the by-reference capture lets the handle escape its scope.
void fixtureLambdaEscape(LeapTable &Table) {
  StreamHierarchy Owner(Table);
  auto Grab = [&]() { Owner.leapTable(); }; // expect: R12
  Grab();
}

// Negative: use-then-move is the sanctioned hand-off order.
void fixtureHandoffOk(LeapTable &Table) {
  StreamHierarchy Owner(Table);
  Owner.leapTable();
  consumeHierarchy(std::move(Owner));
}

} // namespace parmonc

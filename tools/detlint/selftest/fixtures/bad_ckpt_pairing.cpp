// detlint selftest fixture: every violation here is deliberate.
// Seeded violations: ckpt-pairing — a SavedState field the owner saves
// but never restores (the "field added to saveState but not
// restoreState" acceptance case), and one the owner saves and restores
// but no persist body carries to the checkpoint bytes. This TU is never
// compiled by the main build.

#include <cstdint>

class Meter {
 public:
  struct SavedState {
    std::uint64_t ticks = 0;
    std::uint64_t drops = 0;
    // VIOLATION: added to saveState below but never restored.
    std::uint64_t spikes = 0;
    // VIOLATION: saved and restored, but persistMeter never writes it.
    std::uint64_t peak = 0;
  };

  SavedState saveState() const {
    SavedState s;
    s.ticks = ticks_;
    s.drops = drops_;
    s.spikes = spikes_;
    s.peak = peak_;
    return s;
  }

  void restoreState(const SavedState& s) {
    ticks_ = s.ticks;
    drops_ = s.drops;
    peak_ = s.peak;
    // spikes_ forgotten — the lint must notice.
  }

 private:
  std::uint64_t ticks_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t spikes_ = 0;
  std::uint64_t peak_ = 0;
};

// The section's single traversal: `peak` never reaches the bytes.
template <class Ar>
void persistMeter(Ar& ar, Meter::SavedState& s) {
  ar(s.ticks, s.drops, s.spikes);
}

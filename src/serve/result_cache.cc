#include "src/serve/result_cache.hh"

#include "src/graph/reorder.hh"

namespace gmoms::serve
{

std::string
ResultCache::keyFor(const JobSpec& spec, std::uint64_t fingerprint)
{
    // Iterations are part of the key because spec 0 ("algorithm
    // default") and the explicit default value run the same simulation:
    // canonicalize to the effective cap so both spellings share one
    // entry.
    const std::uint32_t iters =
        spec.iterations ? spec.iterations
                        : (spec.algo == "PageRank" ? 10u : 1000u);
    return spec.dataset + "|" + preprocessingName(spec.prep) + "|" +
           spec.algo + "|s" + std::to_string(spec.source) + "|i" +
           std::to_string(iters) + "|f" + std::to_string(fingerprint);
}

std::uint64_t
ResultCache::slotBytes(const std::string& key, const Entry& e)
{
    return key.size() + e.replay.size() + sizeof(Entry) +
           sizeof(Slot) - sizeof(Entry);
}

std::optional<ResultCache::Entry>
ResultCache::get(const std::string& key, bool recheck)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        if (!recheck)
            ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    if (recheck && stats_.misses > 0)
        --stats_.misses;
    it->second.last_use = ++use_clock_;
    return it->second.entry;
}

void
ResultCache::put(const std::string& key, const Entry& entry)
{
    Slot& slot = entries_[key];
    bytes_ -= slot.bytes;  // 0 for a fresh slot
    slot.entry = entry;
    slot.bytes = slotBytes(key, entry);
    slot.last_use = ++use_clock_;
    bytes_ += slot.bytes;
    ++stats_.insertions;
    evictOverBudget(key);
}

void
ResultCache::evictOverBudget(const std::string& keep_key)
{
    while (budget_ > 0 && bytes_ > budget_ && entries_.size() > 1) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->first == keep_key)
                continue;
            if (victim == entries_.end() ||
                it->second.last_use < victim->second.last_use)
                victim = it;
        }
        if (victim == entries_.end())
            break;
        bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        ++stats_.evictions;
    }
}

ResultCache::Stats
ResultCache::stats() const
{
    Stats s = stats_;
    s.entries = entries_.size();
    s.bytes = bytes_;
    s.budget_bytes = budget_;
    return s;
}

} // namespace gmoms::serve

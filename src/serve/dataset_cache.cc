#include "src/serve/dataset_cache.hh"

#include <cstdlib>
#include <utility>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/graph/datasets.hh"
#include "src/sim/log.hh"

namespace gmoms::serve
{

std::uint64_t
datasetBytes(const CooGraph& g)
{
    return sizeof(CooGraph) +
           static_cast<std::uint64_t>(g.numEdges()) * sizeof(Edge) +
           g.name.capacity();
}

DatasetCache::DatasetCache(std::uint64_t budget_bytes)
    : budget_(budget_bytes)
{
}

DatasetPtr
DatasetCache::get(const std::string& tag, Preprocessing prep,
                  std::uint32_t nd_hint)
{
    const Key key{tag, static_cast<int>(prep), nd_hint};
    std::promise<DatasetPtr> build;
    std::shared_future<DatasetPtr> ready;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = cache_.try_emplace(key);
        if (inserted) {
            it->second.ready = build.get_future().share();
            ++misses_;
            builder = true;
        } else {
            ++hits_;
        }
        it->second.last_use = ++tick_;
        ready = it->second.ready;
    }

    if (!builder)
        return ready.get();

    try {
        const DatasetProfile& profile = datasetByTag(tag);
        CooGraph g = buildDataset(profile);
        const std::uint32_t nd =
            nd_hint ? nd_hint
                    : defaultIntervalsFor(g.numNodes(), g.numEdges())
                          .first;
        CooGraph out = applyPreprocessing(g, prep, nd);
        out.name = tag;
        DatasetPtr built =
            std::make_shared<const CooGraph>(std::move(out));
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = cache_.find(key);
            // The entry can only have left the map via a failed build,
            // and this build is the only one for the key — it is there.
            it->second.bytes = datasetBytes(*built);
            it->second.building = false;
            bytes_ += it->second.bytes;
            evictLocked(key);
        }
        build.set_value(built);
        return ready.get();
    } catch (...) {
        // Drop the failed key so a later call retries the build;
        // concurrent waiters still see the exception via the future.
        {
            std::lock_guard<std::mutex> lock(mu_);
            cache_.erase(key);
        }
        build.set_exception(std::current_exception());
        return ready.get();  // rethrows
    }
}

void
DatasetCache::evictLocked(const Key& keep)
{
    if (budget_ == 0)
        return;
    while (bytes_ > budget_) {
        auto victim = cache_.end();
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            if (it->second.building || it->first == keep)
                continue;
            if (victim == cache_.end() ||
                it->second.last_use < victim->second.last_use)
                victim = it;
        }
        if (victim == cache_.end())
            return;  // nothing evictable: stay over budget
        bytes_ -= victim->second.bytes;
        ++evictions_;
        cache_.erase(victim);
    }
}

DatasetCache::Stats
DatasetCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = cache_.size();
    s.bytes = bytes_;
    s.budget_bytes = budget_;
    return s;
}

DatasetCache&
DatasetCache::process()
{
    static DatasetCache* instance = [] {
        std::uint64_t mb = 2048;
        if (const char* env = std::getenv("GMOMS_DATASET_CACHE_MB")) {
            char* end = nullptr;
            const unsigned long long v = std::strtoull(env, &end, 10);
            if (!end || *end != '\0' || env == end)
                fatal(std::string("GMOMS_DATASET_CACHE_MB=\"") + env +
                      "\" is not a number (MB; 0 = unbounded)");
            mb = v;
        }
        return new DatasetCache(mb * 1024 * 1024);
    }();
    return *instance;
}

} // namespace gmoms::serve

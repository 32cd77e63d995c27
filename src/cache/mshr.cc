#include "src/cache/mshr.hh"

#include <algorithm>

#include "src/sim/log.hh"

namespace gmoms
{

MshrFile::MshrFile(std::uint32_t capacity, std::uint32_t tables,
                   std::uint32_t max_kicks)
    : tables_(tables), slots_per_table_(tables ? capacity / tables : 0),
      max_kicks_(max_kicks), keys_(capacity, kEmptyLine),
      entries_(capacity)
{
    kick_path_.reserve(max_kicks);
}

MshrFile
MshrFile::cuckoo(std::uint32_t capacity, std::uint32_t tables,
                 std::uint32_t max_kicks)
{
    if (tables == 0 || tables > 8)
        fatal("cuckoo MSHR file supports 1-8 tables");
    if (capacity % tables != 0)
        fatal("cuckoo MSHR capacity must be a multiple of the table "
              "count");
    if (!isPow2(capacity / tables))
        fatal("cuckoo MSHR slots per table must be a power of two");
    return MshrFile(capacity, tables, max_kicks);
}

MshrFile
MshrFile::associative(std::uint32_t capacity)
{
    if (capacity == 0)
        fatal("associative MSHR capacity must be >= 1");
    return MshrFile(capacity, /*tables=*/0, /*max_kicks=*/0);
}

void
MshrFile::noteInsert()
{
    ++stats_.inserts;
    ++occupancy_;
    stats_.peak_occupancy =
        std::max<std::uint64_t>(stats_.peak_occupancy, occupancy_);
}

MshrEntry*
MshrFile::insert(Addr line)
{
    const MshrEntry fresh{line, kNoSubentry, kNoSubentry, 0, true};
    if (tables_ == 0) {
        for (std::uint32_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] == kEmptyLine) {
                place(i, fresh);
                noteInsert();
                return &entries_[i];
            }
        }
        ++stats_.insert_failures;
        return nullptr;
    }
    // Fast path: an empty slot in any table.
    for (std::uint32_t t = 0; t < tables_; ++t) {
        const std::uint32_t i = slotOf(line, t);
        if (keys_[i] == kEmptyLine) {
            place(i, fresh);
            noteInsert();
            return &entries_[i];
        }
    }
    // Cuckoo path: displace residents, round-robin through tables,
    // recording each swap so a failed insertion can be fully undone
    // (displaced entries own live subentry lists and must not be lost).
    MshrEntry pending = fresh;
    kick_path_.clear();
    std::uint32_t table = 0;
    for (std::uint32_t kick = 0; kick < max_kicks_; ++kick) {
        const std::uint32_t i = slotOf(pending.line, table);
        const MshrEntry resident = entries_[i];
        place(i, pending);
        pending = resident;
        kick_path_.push_back(i);
        ++stats_.cuckoo_kicks;
        if (!pending.valid) {
            noteInsert();
            // The new entry may itself have been displaced onward;
            // return its current location.
            MshrEntry* placed = find(line);
            if (!placed)
                panic("cuckoo insert lost the new entry");
            return placed;
        }
        table = table + 1 == tables_ ? 0 : table + 1;
    }
    // Give up: unwind the kick chain in reverse, restoring every
    // displaced entry (and its key) to its original slot.
    for (auto it = kick_path_.rbegin(); it != kick_path_.rend(); ++it) {
        const MshrEntry displaced = entries_[*it];
        place(*it, pending);
        pending = displaced;
    }
    ++stats_.insert_failures;
    return nullptr;
}

void
MshrFile::erase(Addr line)
{
    const std::uint32_t i = indexOf(line);
    if (i == kNotFound)
        panic("MshrFile::erase: line not present");
    entries_[i].valid = false;
    keys_[i] = kEmptyLine;
    --occupancy_;
}

bool
MshrFile::keysMatchEntries() const
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const MshrEntry& e = entries_[i];
        if (keys_[i] != (e.valid ? e.line : kEmptyLine))
            return false;
    }
    return true;
}

} // namespace gmoms

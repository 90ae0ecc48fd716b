// Binary snapshots: persist an MctDatabase to a single file and reopen it.
//
// The snapshot is a compacting logical dump (palette, live nodes with
// payloads, per-color structure in local document order); loading replays
// it through the public constructors inside one MctDatabase::Loader, which
// rebuild the type counts per edge and each index posting list once. Saving
// walks each colored tree once. Node ids are re-assigned densely — use
// DatabasesIsomorphic (serialize/exchange.h) to compare databases across a
// save/load cycle, not raw NodeIds.
//
// Format v2 (little endian):
//   magic "MCTSNAP2" | u32 format_version (=2) | u64 last_lsn
//   u32 ncolors | colors (lpstring each)
//   u32 nnodes | per node: u8 kind, lpstring tag, u8 has_content,
//     lpstring content?, u32 nattrs, (lpstring name, lpstring value)*
//   per color: u64 nedges | (u32 parent, u32 child)* in pre-order
//     (parent precedes child, so appends reproduce sibling order)
//   u32 crc32c over every preceding byte
//
// Durability: SaveSnapshot writes the whole image to `path + ".tmp"`,
// fsyncs, renames over `path` and fsyncs the directory — a crash at any
// point leaves either the old complete file or the new complete file, and
// OpenSnapshot rejects anything torn or bit-flipped via the CRC trailer
// (v1 files without a checksum are rejected as Corruption). `last_lsn`
// records the newest WAL record the image includes, so recovery replays
// exactly the tail (see mct/durability.h).

#ifndef COLORFUL_XML_MCT_SNAPSHOT_H_
#define COLORFUL_XML_MCT_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "mct/database.h"
#include "storage/file_env.h"

namespace mct {

/// Atomically writes a snapshot of `db` to `path` (replaces any previous
/// file). `env` null uses the real filesystem; `last_lsn` stamps the newest
/// WAL record the image covers (0 for standalone snapshots).
Status SaveSnapshot(const MctDatabase& db, const std::string& path,
                    FileEnv* env = nullptr, uint64_t last_lsn = 0);

/// Reconstructs a database from a snapshot file, verifying the CRC trailer
/// first. `last_lsn` (when non-null) receives the stamp written at save.
Result<std::unique_ptr<MctDatabase>> OpenSnapshot(const std::string& path,
                                                  FileEnv* env = nullptr,
                                                  uint64_t* last_lsn = nullptr);

}  // namespace mct

#endif  // COLORFUL_XML_MCT_SNAPSHOT_H_

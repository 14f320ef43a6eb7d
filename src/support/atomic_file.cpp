//===--- support/atomic_file.cpp - temp-write + rename file publication ------===//

#include "support/atomic_file.h"

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "support/strings.h"

namespace diderot::support {

namespace fs = std::filesystem;

Status writeFileAtomic(const std::string &Path, const std::string &Contents) {
  return writeFileAtomic(Path, {std::string_view(Contents)});
}

Status writeFileAtomic(const std::string &Path,
                       std::initializer_list<std::string_view> Pieces) {
  fs::path Dest(Path);
  // Same-directory temp so the rename never crosses a filesystem boundary.
  fs::path Tmp = Dest;
  Tmp += strf(".tmp.", ::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Status::error(strf("cannot write ", Tmp.string()));
    for (std::string_view P : Pieces)
      Out.write(P.data(), static_cast<std::streamsize>(P.size()));
    if (!Out.flush()) {
      Out.close();
      std::error_code EC;
      fs::remove(Tmp, EC);
      return Status::error(strf("short write to ", Tmp.string()));
    }
  }
  std::error_code EC;
  fs::rename(Tmp, Dest, EC);
  if (EC) {
    std::error_code E2;
    fs::remove(Tmp, E2);
    return Status::error(
        strf("cannot install ", Dest.string(), ": ", EC.message()));
  }
  return Status::ok();
}

bool writeFileAtomicBestEffort(const std::string &Path,
                               const std::string &Contents) {
  return writeFileAtomic(Path, Contents).isOk();
}

} // namespace diderot::support

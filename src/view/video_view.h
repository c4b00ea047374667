/**
 * @file
 * VideoView: plays a video file, mirroring android.widget.VideoView.
 * Table 1 migration policy: setVideoURI (we also carry the playback
 * position, which is the state users actually notice losing).
 */
#ifndef RCHDROID_VIEW_VIDEO_VIEW_H
#define RCHDROID_VIEW_VIDEO_VIEW_H

#include <string>

#include "platform/time.h"
#include "view/view.h"

namespace rchdroid {

/**
 * A video playback surface.
 */
class VideoView : public View
{
  public:
    explicit VideoView(std::string id);

    const char *typeName() const override { return "VideoView"; }

    const std::string &videoUri() const { return video_uri_; }
    void setVideoUri(std::string uri);

    bool isPlaying() const { return playing_; }
    void start();
    void pause();

    /** Playback position in milliseconds. */
    std::int64_t positionMs() const { return position_ms_; }
    void seekTo(std::int64_t position_ms);

    void applyMigration(View &target) const override;
    std::size_t memoryFootprintBytes() const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    std::string video_uri_;
    bool playing_ = false;
    std::int64_t position_ms_ = 0;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_VIDEO_VIEW_H
